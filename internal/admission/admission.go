// Package admission is the multi-tenant front door: per-tenant token-bucket
// rate limiters, a bounded admission queue in front of query evaluation, and
// per-query work budgets. It decides three things about every request —
// may this tenant send it now (429 rate_limited), is there room to run or
// queue it (503 overloaded), and how much derivation work it may do before
// dying with a typed budget_exceeded error instead of taking the node down.
//
// The BDD/FC line of work treats bounded derivation depth as a tractability
// property of a Datalog program; this package turns that bound — plus step
// and memory bounds — into enforced runtime guardrails.
package admission

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/obs"
)

// Typed shed conditions. ShedError values match these via errors.Is.
var (
	// ErrRateLimited: the tenant's token bucket is empty — the client is
	// over its configured rate and should back off for Retry-After.
	ErrRateLimited = errors.New("admission: rate limited")
	// ErrOverloaded: the node's admission queue is full or the wait timed
	// out — a capacity condition, not a per-tenant one.
	ErrOverloaded = errors.New("admission: overloaded")
)

// ErrBudgetExceeded matches any exhausted per-query work budget
// (Algorithm Q steps, derivation depth, arena bytes). Re-exported from obs
// so callers need only this package.
var ErrBudgetExceeded = obs.ErrBudgetExceeded

// Shed codes, as they appear in HTTP error envelopes.
const (
	CodeRateLimited = "rate_limited"
	CodeOverloaded  = "overloaded"
)

// ShedError reports one refused request: which tenant, why, and how long
// the client should wait before retrying. A shed is not a node failure —
// clients must not fail over to a replica on one.
type ShedError struct {
	Tenant     string
	Code       string // CodeRateLimited or CodeOverloaded
	Reason     string // human detail ("token bucket empty", "queue full", ...)
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: tenant %q %s: %s (retry after %s)",
		e.Tenant, e.Code, e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrRateLimited/ErrOverloaded) work.
func (e *ShedError) Is(target error) bool {
	switch target {
	case ErrRateLimited:
		return e.Code == CodeRateLimited
	case ErrOverloaded:
		return e.Code == CodeOverloaded
	}
	return false
}

// Options configures a Controller.
type Options struct {
	// Reg receives the funcdbd_admission_* metrics; nil disables them.
	Reg *obs.Registry
	// Concurrency is the number of admitted requests allowed to evaluate
	// simultaneously. 0 defaults to 4×GOMAXPROCS.
	Concurrency int
	// QueueDepth is the bounded waiting room behind the concurrency slots:
	// arrivals beyond it are shed immediately with 503. 0 defaults to
	// 4×Concurrency.
	QueueDepth int
	// QueueTimeout bounds how long a queued request may wait for a slot
	// before being shed with 503. 0 defaults to 1s.
	QueueTimeout time.Duration
	// Config is the initial tenant policy table (may be hot-swapped later
	// via SetConfig or WatchFile). Its Default work limits stay the base of
	// every budget: a later table cannot drop them, only set a tenant's own.
	Config Config
	// Now is the clock, for tests. nil means time.Now.
	Now func() time.Time
}

// Controller is the admission front door shared by every endpoint of one
// daemon. All methods are safe for concurrent use.
type Controller struct {
	now          func() time.Time
	sem          chan struct{} // concurrency slots; len == inflight
	queueDepth   int64
	queueTimeout time.Duration
	waiting      atomic.Int64
	// work holds the initial Default's work limits, which fill any zero
	// work limit of the policy a budget is built from. Never changes.
	work Limits

	mu      sync.Mutex
	cfg     Config
	tenants map[string]*tenantState

	// waits holds per-tenant admission-wait histograms (time from arrival
	// to evaluation slot). Keys are bounded: configured tenants plus
	// "anonymous", everything else folded into "other", so dynamic API keys
	// cannot inflate label cardinality.
	waitMu sync.Mutex
	waits  map[string]*obs.Histogram

	reg      *obs.Registry
	admitted *obs.Counter
	shedRate *obs.Counter
	shedOver *obs.Counter
	shedWait *obs.Counter
	kills    *obs.Counter

	stop     chan struct{}
	stopOnce sync.Once
}

// tenantState is the live limiter state for one tenant. The watch hub
// counts concurrent subscriptions itself (they are long-lived and must not
// hold admission slots); it consults WatchCap for the tenant's cap.
type tenantState struct {
	mu  sync.Mutex
	lim Limits
	tb  bucket
}

// New builds a Controller.
func New(opts Options) *Controller {
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 4 * runtime.GOMAXPROCS(0)
	}
	qd := opts.QueueDepth
	if qd <= 0 {
		qd = 4 * conc
	}
	qt := opts.QueueTimeout
	if qt <= 0 {
		qt = time.Second
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	c := &Controller{
		now:          now,
		sem:          make(chan struct{}, conc),
		queueDepth:   int64(qd),
		queueTimeout: qt,
		cfg:          opts.Config,
		work: Limits{MaxQSteps: opts.Config.Default.MaxQSteps, MaxDepth: opts.Config.Default.MaxDepth,
			MaxArenaBytes: opts.Config.Default.MaxArenaBytes},
		tenants: make(map[string]*tenantState),
		waits:   make(map[string]*obs.Histogram),
		stop:    make(chan struct{}),
	}
	if opts.Reg != nil {
		c.Instrument(opts.Reg)
	}
	return c
}

// Instrument registers the funcdbd_admission_* metrics on r. Servers that
// build their own metric registry call this instead of Options.Reg.
func (c *Controller) Instrument(r *obs.Registry) {
	c.reg = r
	c.admitted = r.Counter("funcdbd_admission_admitted_total",
		"Requests admitted past rate limiting and queueing.")
	c.shedRate = r.Counter("funcdbd_admission_sheds_total",
		"Requests shed by the admission layer.", "reason", CodeRateLimited)
	c.shedOver = r.Counter("funcdbd_admission_sheds_total",
		"Requests shed by the admission layer.", "reason", CodeOverloaded)
	c.shedWait = r.Counter("funcdbd_admission_sheds_total",
		"Requests shed by the admission layer.", "reason", "watch_cap")
	c.kills = r.Counter("funcdbd_admission_budget_kills_total",
		"Queries killed by a per-query work budget.")
	r.GaugeFunc("funcdbd_admission_queue_depth",
		"Requests waiting for an evaluation slot.",
		func() float64 { return float64(c.waiting.Load()) })
	r.GaugeFunc("funcdbd_admission_inflight",
		"Admitted requests currently evaluating.",
		func() float64 { return float64(len(c.sem)) })
	// Token gauges only for tenants named in the config — dynamic API
	// keys would make the label cardinality attacker-controlled.
	c.mu.Lock()
	cfg := c.cfg
	c.mu.Unlock()
	for name := range cfg.Tenants {
		c.registerTokenGauge(name)
	}
}

func (c *Controller) registerTokenGauge(name string) {
	ts := c.tenant(name)
	c.reg.GaugeFunc("funcdbd_admission_tokens",
		"Current token-bucket level per configured tenant.",
		func() float64 {
			ts.mu.Lock()
			defer ts.mu.Unlock()
			return ts.tb.level(c.now())
		}, "tenant", name)
}

// SetConfig hot-swaps the tenant policy table. Existing buckets keep their
// fill level, clamped to the new burst; new limits take effect on the next
// Admit.
func (c *Controller) SetConfig(cfg Config) {
	c.mu.Lock()
	prev := c.cfg
	c.cfg = cfg
	for name, ts := range c.tenants {
		lim := cfg.limitsFor(name)
		ts.mu.Lock()
		ts.lim = lim
		ts.tb.rate, ts.tb.burst = lim.Rate, lim.Burst
		if ts.tb.tokens > lim.Burst {
			ts.tb.tokens = lim.Burst
		}
		ts.mu.Unlock()
	}
	c.mu.Unlock()
	if c.reg != nil {
		for name := range cfg.Tenants {
			if _, ok := prev.Tenants[name]; !ok {
				c.registerTokenGauge(name)
			}
		}
	}
}

// Close stops the config file poller, if any.
func (c *Controller) Close() { c.stopOnce.Do(func() { close(c.stop) }) }

// tenant returns (creating if needed) the live state for one tenant.
func (c *Controller) tenant(name string) *tenantState {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.tenants[name]
	if ts == nil {
		lim := c.cfg.limitsFor(name)
		ts = &tenantState{lim: lim, tb: bucket{rate: lim.Rate, burst: lim.Burst}}
		c.tenants[name] = ts
	}
	return ts
}

// Admit gates one request of the given cost for one tenant. On success it
// returns a release closure the caller must invoke when evaluation
// finishes. On refusal it returns a *ShedError (ErrRateLimited or
// ErrOverloaded via errors.Is) carrying the Retry-After to send.
//
// Order matters: the token bucket is charged first, so a flooding tenant is
// shed with 429 before it can touch — let alone fill — the shared queue.
func (c *Controller) Admit(ctx context.Context, tenant string, cost int) (release func(), err error) {
	if shed := c.takeTokens(tenant, cost); shed != nil {
		inc(c.shedRate)
		return nil, shed
	}

	// Fast path: a free evaluation slot.
	select {
	case c.sem <- struct{}{}:
		inc(c.admitted)
		c.observeWait(tenant, 0)
		return c.release, nil
	default:
	}
	arrived := c.now()
	// Bounded waiting room. Beyond it, shed immediately — queueing more
	// than we can drain within the timeout only adds latency for everyone.
	if c.waiting.Add(1) > c.queueDepth {
		c.waiting.Add(-1)
		inc(c.shedOver)
		return nil, &ShedError{Tenant: tenant, Code: CodeOverloaded,
			Reason: "admission queue full", RetryAfter: time.Second}
	}
	t := time.NewTimer(c.queueTimeout)
	defer t.Stop()
	select {
	case c.sem <- struct{}{}:
		c.waiting.Add(-1)
		inc(c.admitted)
		c.observeWait(tenant, c.now().Sub(arrived))
		return c.release, nil
	case <-ctx.Done():
		c.waiting.Add(-1)
		return nil, ctx.Err()
	case <-t.C:
		c.waiting.Add(-1)
		inc(c.shedOver)
		return nil, &ShedError{Tenant: tenant, Code: CodeOverloaded,
			Reason: "timed out waiting for an evaluation slot", RetryAfter: time.Second}
	}
}

func (c *Controller) release() { <-c.sem }

// takeTokens charges the tenant's bucket and returns the shed on refusal.
func (c *Controller) takeTokens(tenant string, cost int) *ShedError {
	if cost <= 0 {
		cost = 1
	}
	ts := c.tenant(tenant)
	ts.mu.Lock()
	limited := ts.lim.rateLimited()
	var retry time.Duration
	ok := true
	if limited {
		ok, retry = ts.tb.take(c.now(), float64(cost))
	}
	ts.mu.Unlock()
	if ok {
		return nil
	}
	return &ShedError{Tenant: tenant, Code: CodeRateLimited,
		Reason: "token bucket empty", RetryAfter: retry}
}

// AdmitRate charges only the tenant's token bucket, without taking an
// evaluation slot — for long-lived streams (watch subscriptions) whose
// concurrency is bounded elsewhere, so a stream never pins a slot that
// unary queries need.
func (c *Controller) AdmitRate(tenant string, cost int) error {
	if shed := c.takeTokens(tenant, cost); shed != nil {
		inc(c.shedRate)
		return shed
	}
	inc(c.admitted)
	return nil
}

// Budget builds a fresh per-query work budget for the tenant, or nil when
// neither its policy nor the initial Default sets a work limit. A work
// limit the tenant's policy leaves zero is the initial Default's. One
// Budget serves exactly one query.
func (c *Controller) Budget(tenant string) *obs.Budget {
	ts := c.tenant(tenant)
	ts.mu.Lock()
	lim := ts.lim
	ts.mu.Unlock()
	if lim.MaxQSteps <= 0 {
		lim.MaxQSteps = c.work.MaxQSteps
	}
	if lim.MaxDepth <= 0 {
		lim.MaxDepth = c.work.MaxDepth
	}
	if lim.MaxArenaBytes <= 0 {
		lim.MaxArenaBytes = c.work.MaxArenaBytes
	}
	if lim.MaxQSteps <= 0 && lim.MaxDepth <= 0 && lim.MaxArenaBytes <= 0 {
		return nil
	}
	return &obs.Budget{MaxQSteps: lim.MaxQSteps, MaxDepth: lim.MaxDepth, MaxBytes: lim.MaxArenaBytes}
}

// WatchCap returns the per-tenant cap on concurrent watch subscriptions
// (0 = uncapped), in the shape the watch hub's TenantCap option expects.
func (c *Controller) WatchCap(tenant string) int {
	ts := c.tenant(tenant)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.lim.MaxWatches
}

// RecordBudgetKill counts one query killed by its work budget, for the
// funcdbd_admission_budget_kills_total metric. Nil-safe.
func (c *Controller) RecordBudgetKill() {
	if c == nil {
		return
	}
	inc(c.kills)
}

// RecordWatchShed counts one watch subscription refused by the per-tenant
// cap. Nil-safe.
func (c *Controller) RecordWatchShed() {
	if c == nil {
		return
	}
	inc(c.shedWait)
}

// waitKey folds unconfigured tenants into "other" so admission-wait series
// (metric labels and the stats endpoint alike) stay bounded.
func (c *Controller) waitKey(tenant string) string {
	if tenant == "anonymous" {
		return tenant
	}
	c.mu.Lock()
	_, known := c.cfg.Tenants[tenant]
	c.mu.Unlock()
	if known {
		return tenant
	}
	return "other"
}

// observeWait records one admission wait (zero on the fast path, queue time
// otherwise) into the tenant's histogram, creating it on first use.
func (c *Controller) observeWait(tenant string, d time.Duration) {
	key := c.waitKey(tenant)
	c.waitMu.Lock()
	h := c.waits[key]
	if h == nil {
		if c.reg != nil {
			h = c.reg.Histogram("funcdbd_admission_wait_seconds",
				"Time requests spent waiting for an evaluation slot, per tenant (unconfigured tenants fold into \"other\").",
				obs.DurationBuckets, "tenant", key)
		} else {
			h = obs.NewHistogram(obs.DurationBuckets)
		}
		c.waits[key] = h
	}
	c.waitMu.Unlock()
	h.Observe(d.Seconds())
}

// WaitStats summarizes admission waits per tenant for the stats endpoint.
type WaitStats struct {
	Tenant  string  `json:"tenant"`
	Count   int64   `json:"count"`
	MeanUS  int64   `json:"mean_us"`
	P99US   int64   `json:"p99_us"`
	TotalMS int64   `json:"total_ms"`
	Mean    float64 `json:"-"`
}

// Waits snapshots the per-tenant admission-wait histograms. Nil-safe.
func (c *Controller) Waits() []WaitStats {
	if c == nil {
		return nil
	}
	c.waitMu.Lock()
	keys := make([]string, 0, len(c.waits))
	hists := make([]*obs.Histogram, 0, len(c.waits))
	for k, h := range c.waits {
		keys = append(keys, k)
		hists = append(hists, h)
	}
	c.waitMu.Unlock()
	out := make([]WaitStats, 0, len(keys))
	for i, k := range keys {
		h := hists[i]
		_, _, sum, count := h.Snapshot()
		ws := WaitStats{Tenant: k, Count: count, TotalMS: int64(sum * 1e3)}
		if count > 0 {
			ws.MeanUS = int64(sum / float64(count) * 1e6)
			ws.P99US = int64(h.Quantile(0.99) * 1e6)
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// inc is Inc on a possibly-nil counter (metrics disabled).
func inc(ct *obs.Counter) {
	if ct != nil {
		ct.Inc()
	}
}

// Waiting reports the current admission-queue depth, for tests.
func (c *Controller) Waiting() int64 { return c.waiting.Load() }

// Inflight reports the number of held evaluation slots, for tests.
func (c *Controller) Inflight() int { return len(c.sem) }
