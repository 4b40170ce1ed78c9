package admission

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"
)

// Limits is the admission policy for one tenant: how fast requests may
// arrive, how many live watch streams it may hold, and how much work any
// single query may do. A zero rate, burst or watch cap is unlimited; a zero
// work limit (MaxQSteps, MaxDepth, MaxArenaBytes) is the Controller's
// initial Default's, which fdbd's flags set, and unlimited only when that
// is zero too.
type Limits struct {
	// Rate is the token refill rate in request-cost units per second.
	Rate float64 `json:"rate"`
	// Burst is the bucket capacity (and initial fill).
	Burst float64 `json:"burst"`
	// MaxWatches caps concurrent watch subscriptions held by the tenant.
	MaxWatches int `json:"max_watches,omitempty"`
	// MaxQSteps bounds Algorithm Q exploration steps per query.
	MaxQSteps int64 `json:"max_qsteps,omitempty"`
	// MaxDepth bounds derivation depth per query.
	MaxDepth int64 `json:"max_depth,omitempty"`
	// MaxArenaBytes bounds the metered answer-arena bytes per query.
	MaxArenaBytes int64 `json:"max_arena_bytes,omitempty"`
}

// rateLimited reports whether the tenant has a finite token bucket at all.
func (l Limits) rateLimited() bool { return l.Rate > 0 || l.Burst > 0 }

// Config is the per-tenant policy table, normally loaded from a JSON file:
//
//	{
//	  "default": {"rate": 200, "burst": 400, "max_watches": 8},
//	  "tenants": {
//	    "free-tier-key": {"rate": 20, "burst": 40, "max_qsteps": 100000},
//	    "batch-key":     {"rate": 1000, "burst": 2000}
//	  }
//	}
//
// Tenants absent from the table get Default. An entirely zero Default means
// unknown tenants are admitted without rate limiting (the work limits of the
// Controller's initial Default, which fdbd's flags set, still apply).
type Config struct {
	Default Limits            `json:"default"`
	Tenants map[string]Limits `json:"tenants"`
}

// limitsFor resolves the policy for one tenant name.
func (c Config) limitsFor(tenant string) Limits {
	if l, ok := c.Tenants[tenant]; ok {
		return l
	}
	return c.Default
}

// LoadConfigFile reads and decodes a tenant policy file.
func LoadConfigFile(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return Config{}, fmt.Errorf("admission config %s: %w", path, err)
	}
	for name, l := range cfg.Tenants {
		if l.Rate < 0 || l.Burst < 0 {
			return Config{}, fmt.Errorf("admission config %s: tenant %q has negative rate or burst", path, name)
		}
	}
	return cfg, nil
}

// WatchFile loads path synchronously (so a bad file fails startup loudly),
// then polls it every interval and hot-swaps the policy whenever the decoded
// config differs from the live one. Like the shard-map watcher, every poll
// decodes outright rather than trusting mtime granularity.
func (c *Controller) WatchFile(path string, interval time.Duration) error {
	cfg, err := LoadConfigFile(path)
	if err != nil {
		return err
	}
	c.SetConfig(cfg)
	if interval <= 0 {
		interval = time.Second
	}
	go c.pollFile(path, interval)
	return nil
}

func (c *Controller) pollFile(path string, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		cfg, err := LoadConfigFile(path)
		if err != nil {
			continue // reported at startup; a mid-edit torn read heals next poll
		}
		c.mu.Lock()
		same := reflect.DeepEqual(cfg, c.cfg)
		c.mu.Unlock()
		if !same {
			c.SetConfig(cfg)
		}
	}
}
