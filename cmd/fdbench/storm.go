// The storm benchmark soaks a small sharded cluster with mixed traffic
// from many tenants while one abusive tenant floods it, and checks the
// admission-control story end to end: the abuser is shed with 429/503 +
// Retry-After (and its expensive enumerations die by work budget, not by
// node death), while well-behaved tenants keep their latency — the gate
// fails if their p99 during the abuse phase regresses past 2x the calm
// baseline (plus a small additive floor for timer noise). The result is
// recorded as JSON for CI artifact upload (make bench-storm); the short
// mode is the same storm scaled down to run under the race detector
// (make race-storm).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/admission"
	"funcdb/internal/api"
	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/registry"
	"funcdb/internal/server"
	"funcdb/internal/shard"
)

// stormReport is the schema of BENCH_storm.json.
type stormReport struct {
	Bench    string `json:"bench"`
	Workload string `json:"workload"`
	Short    bool   `json:"short"`

	Tenants      int     `json:"tenants"`
	PhaseSeconds float64 `json:"phase_seconds"`

	// Well-behaved tenant latency, calm baseline vs abuse phase.
	BaseOps    int     `json:"base_ops"`
	BaseP50US  float64 `json:"base_p50_us"`
	BaseP99US  float64 `json:"base_p99_us"`
	AbuseOps   int     `json:"abuse_ops"`
	AbuseP50US float64 `json:"abuse_p50_us"`
	AbuseP99US float64 `json:"abuse_p99_us"`
	P99Ratio   float64 `json:"p99_ratio"`

	// Well-behaved error budget: transient 429s are tolerated, anything
	// else fails the gate.
	WellRateLimited int `json:"well_rate_limited"`
	WellErrors      int `json:"well_errors"`

	// Abuser outcomes during the abuse phase.
	AbuserOK          int `json:"abuser_ok"`
	AbuserRateLimited int `json:"abuser_rate_limited"`
	AbuserOverloaded  int `json:"abuser_overloaded"`
	AbuserBudgetKills int `json:"abuser_budget_kills"`
	AbuserWatchSheds  int `json:"abuser_watch_sheds"`
	AbuserErrors      int `json:"abuser_errors"`

	PeakRSSMB  float64 `json:"peak_rss_mb"`
	HeapInUsMB float64 `json:"heap_inuse_mb"`
}

// stormCounts tallies one traffic class's outcomes.
type stormCounts struct {
	ok, rateLimited, overloaded, budgetKills, watchSheds, other int64
}

func (c *stormCounts) record(status int, code string) {
	switch {
	case status >= 200 && status < 300:
		atomic.AddInt64(&c.ok, 1)
	case status == http.StatusTooManyRequests:
		atomic.AddInt64(&c.rateLimited, 1)
	case status == http.StatusServiceUnavailable && code == "overloaded":
		atomic.AddInt64(&c.overloaded, 1)
	case status == http.StatusUnprocessableEntity &&
		(code == "budget_exceeded" || code == "depth_budget_exceeded"):
		atomic.AddInt64(&c.budgetKills, 1)
	default:
		atomic.AddInt64(&c.other, 1)
	}
}

// stormCluster is a 2-group sharded cluster with identical per-tenant
// admission policy on every node, fronted by one router.
type stormCluster struct {
	router *httptest.Server
	closes []func()
}

func (sc *stormCluster) close() {
	for i := len(sc.closes) - 1; i >= 0; i-- {
		sc.closes[i]()
	}
}

func newStormCluster(tenants []datagen.Tenant, abuser datagen.Tenant, short bool) *stormCluster {
	const groups = 2
	conc := 2 * runtime.GOMAXPROCS(0)
	policy := admission.Config{
		// Well-behaved tenants are not rate limited; the shared queue and
		// per-node concurrency are their only backpressure.
		Tenants: map[string]admission.Limits{
			abuser.Name: {
				Rate: 30, Burst: 20,
				MaxWatches:    2,
				MaxQSteps:     300,
				MaxArenaBytes: 32 << 10,
			},
		},
	}
	sc := &stormCluster{}
	var ms []shard.Group
	overrides := map[string]string{}
	regs := make([]*registry.Registry, groups)
	for g := 0; g < groups; g++ {
		reg := registry.New(core.Options{})
		regs[g] = reg
		ctl := admission.New(admission.Options{
			Concurrency:  conc,
			QueueDepth:   4 * conc,
			QueueTimeout: 250 * time.Millisecond,
			Config:       policy,
		})
		ts := httptest.NewServer(server.New(reg, server.Config{
			CacheSize: -1, Admission: ctl,
			// Sheds are the point of this bench; logging every one of them
			// would drown the report.
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		}).Handler())
		sc.closes = append(sc.closes, ts.Close, ctl.Close)
		ms = append(ms, shard.Group{Name: fmt.Sprintf("g%d", g), Primary: ts.URL})
	}
	for i, tn := range tenants {
		g := i % groups
		if _, err := regs[g].PutProgram(tn.DB, []byte(tn.Src)); err != nil {
			panic(err)
		}
		overrides[tn.DB] = fmt.Sprintf("g%d", g)
	}
	if _, err := regs[0].PutProgram(abuser.DB, []byte(abuser.Src)); err != nil {
		panic(err)
	}
	overrides[abuser.DB] = "g0"
	src := shard.NewSource(&shard.Map{Version: 1, Groups: ms, Overrides: overrides})
	rt := shard.NewRouter(src, shard.Options{ShardTimeout: 10 * time.Second})
	router := httptest.NewServer(rt)
	sc.closes = append(sc.closes, src.Close, rt.Close, router.Close)
	sc.router = router
	return sc
}

// stormDo issues one request as a tenant and returns status, error code
// and latency.
func stormDo(hc *api.Client, base, method, path, apiKey, body string) (int, string, time.Duration) {
	rq := api.Request{Method: method, URL: base + path, Body: []byte(body), APIKey: apiKey}
	if body != "" {
		rq.ContentType = api.ContentJSON
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	_, err := hc.Do(ctx, rq)
	status, code := stormResult(err)
	return status, code, time.Since(start)
}

// stormResult reads a call's outcome the way the soak counts it: 200, a
// daemon's refusal as its status and code, anything else as a transport
// failure.
func stormResult(err error) (int, string) {
	var e *api.Error
	switch {
	case err == nil:
		return http.StatusOK, ""
	case errors.As(err, &e):
		return e.Status, e.Code
	}
	return 0, "transport"
}

// stormWatch opens a watch stream as a tenant and drains frames until the
// stop channel closes; the first return reports whether the subscription
// was accepted, the second carries the error code when it was shed.
func stormWatch(hc *api.Client, base string, tn datagen.Tenant, stop <-chan struct{}) (bool, string) {
	resp, err := hc.Stream(context.Background(), api.Request{Method: http.MethodPost,
		URL: base + "/v1/db/" + tn.DB + "/watch", Body: []byte(fmt.Sprintf(`{"query":%q,"limit":64}`, tn.Answers)),
		ContentType: api.ContentJSON, APIKey: tn.Name})
	if err != nil {
		_, code := stormResult(err)
		return false, code
	}
	go func() {
		defer resp.Body.Close()
		done := make(chan struct{})
		go func() {
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 64<<10), 1<<20)
			for sc.Scan() {
			}
			close(done)
		}()
		select {
		case <-stop:
		case <-done:
		}
	}()
	return true, ""
}

// vmHWMMB reads the process's peak resident set from /proc (Linux);
// 0 when unavailable.
func vmHWMMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// stormBench runs the soak: a calm baseline phase of well-behaved mixed
// traffic, then the same traffic with the abuser flooding, and gates on
// the well-behaved p99 staying put while the abuser is shed.
func stormBench(outPath string, short bool) {
	if outPath == "" {
		outPath = "BENCH_storm.json"
	}
	nWell, phase, floodWorkers := 6, 5*time.Second, 4
	p99Floor := 25 * time.Millisecond
	if short {
		// Same storm, sized to finish quickly under the race detector; the
		// additive floor is wider because -race stretches every latency.
		nWell, phase, floodWorkers = 3, 1500*time.Millisecond, 2
		p99Floor = 150 * time.Millisecond
	}
	tenants := datagen.Tenants(nWell)
	abuser := datagen.AbuserTenant()
	sc := newStormCluster(tenants, abuser, short)
	defer sc.close()
	var hc *api.Client // the process-wide default
	base := sc.router.URL

	// Warm every database through the router (compiles the specs) so the
	// baseline phase measures steady-state latency.
	for _, tn := range tenants {
		if st, code, _ := stormDo(hc, base, http.MethodPost, "/v1/db/"+tn.DB+"/ask", tn.Name,
			fmt.Sprintf(`{"query":%q}`, tn.Ask)); st != http.StatusOK {
			panic(fmt.Sprintf("warm ask for %s: %d %s", tn.DB, st, code))
		}
	}

	// runPhase drives every well-behaved tenant with a paced ask-heavy mix
	// (5 asks : 2 answers : 1 fact append, plus one held watch stream) and
	// returns the latency sample of their successful operations. Appended
	// facts reuse a small window of time points: a large fresh constant
	// would legitimately grow the spec and measure compilation, not
	// admission.
	factSeq := int64(0)
	runPhase := func(d time.Duration, abuse bool, well, mal *stormCounts) []time.Duration {
		stop := make(chan struct{})
		var mu sync.Mutex
		var lat []time.Duration
		var wg sync.WaitGroup
		for _, tn := range tenants {
			tn := tn
			if ok, code := stormWatch(hc, base, tn, stop); !ok {
				panic(fmt.Sprintf("well-behaved watch for %s shed: %s", tn.DB, code))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					var st int
					var code string
					var dur time.Duration
					switch i % 8 {
					case 5, 6:
						st, code, dur = stormDo(hc, base, http.MethodPost, "/v1/db/"+tn.DB+"/answers", tn.Name,
							fmt.Sprintf(`{"query":%q,"depth":8,"limit":64}`, tn.Answers))
					case 7:
						fact := fmt.Sprintf(tn.FactFmt, 10+atomic.AddInt64(&factSeq, 1)%40)
						st, code, dur = stormDo(hc, base, http.MethodPost, "/v1/db/"+tn.DB+"/facts", tn.Name,
							fmt.Sprintf(`{"facts":%q}`, fact))
					default:
						st, code, dur = stormDo(hc, base, http.MethodPost, "/v1/db/"+tn.DB+"/ask", tn.Name,
							fmt.Sprintf(`{"query":%q}`, tn.Ask))
					}
					well.record(st, code)
					if st == http.StatusOK {
						mu.Lock()
						lat = append(lat, dur)
						mu.Unlock()
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
		}
		if abuse {
			// The abuser floods unpaced: expensive enumerations, cheap asks
			// and a pile of watch subscriptions beyond its cap.
			for w := 0; w < floodWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if i%3 == 0 {
							st, code, _ := stormDo(hc, base, http.MethodPost, "/v1/db/"+abuser.DB+"/answers", abuser.Name,
								fmt.Sprintf(`{"query":%q,"depth":10,"limit":10000}`, abuser.Answers))
							mal.record(st, code)
						} else {
							st, code, _ := stormDo(hc, base, http.MethodPost, "/v1/db/"+abuser.DB+"/ask", abuser.Name,
								fmt.Sprintf(`{"query":%q}`, abuser.Ask))
							mal.record(st, code)
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					if ok, code := stormWatch(hc, base, abuser, stop); !ok && code == "rate_limited" {
						atomic.AddInt64(&mal.watchSheds, 1)
					}
				}
			}()
		}
		time.Sleep(d)
		close(stop)
		wg.Wait()
		return lat
	}

	var wellBase, wellAbuse, mal stormCounts
	baseLat := runPhase(phase, false, &wellBase, &mal)
	abuseLat := runPhase(phase, true, &wellAbuse, &mal)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	rep := stormReport{
		Bench: "storm",
		Workload: fmt.Sprintf("%d well-behaved tenants (calendar/chain mix) + 1 abuser (subsets) on a 2-group cluster, %v calm then %v abuse",
			nWell, phase, phase),
		Short:             short,
		Tenants:           nWell + 1,
		PhaseSeconds:      phase.Seconds(),
		BaseOps:           len(baseLat),
		BaseP50US:         us(pctDur(baseLat, 50)),
		BaseP99US:         us(pctDur(baseLat, 99)),
		AbuseOps:          len(abuseLat),
		AbuseP50US:        us(pctDur(abuseLat, 50)),
		AbuseP99US:        us(pctDur(abuseLat, 99)),
		WellRateLimited:   int(wellBase.rateLimited + wellAbuse.rateLimited),
		WellErrors:        int(wellBase.other + wellAbuse.other + wellBase.overloaded + wellAbuse.overloaded + wellBase.budgetKills + wellAbuse.budgetKills),
		AbuserOK:          int(mal.ok),
		AbuserRateLimited: int(mal.rateLimited),
		AbuserOverloaded:  int(mal.overloaded),
		AbuserBudgetKills: int(mal.budgetKills),
		AbuserWatchSheds:  int(mal.watchSheds),
		AbuserErrors:      int(mal.other),
		PeakRSSMB:         vmHWMMB(),
		HeapInUsMB:        float64(ms.HeapInuse) / (1 << 20),
	}
	rep.P99Ratio = rep.AbuseP99US / rep.BaseP99US

	fmt.Println("STORM  multi-tenant admission control under abuse")
	fmt.Printf("well-behaved calm : %6d ops  p50 %.0fus  p99 %.0fus\n", rep.BaseOps, rep.BaseP50US, rep.BaseP99US)
	fmt.Printf("well-behaved abuse: %6d ops  p50 %.0fus  p99 %.0fus  (p99 %.2fx calm)\n",
		rep.AbuseOps, rep.AbuseP50US, rep.AbuseP99US, rep.P99Ratio)
	fmt.Printf("well-behaved sheds: %d transient 429s, %d other errors\n", rep.WellRateLimited, rep.WellErrors)
	fmt.Printf("abuser: %d ok, %d rate_limited, %d overloaded, %d budget kills, %d watch sheds, %d other\n",
		rep.AbuserOK, rep.AbuserRateLimited, rep.AbuserOverloaded, rep.AbuserBudgetKills, rep.AbuserWatchSheds, rep.AbuserErrors)
	fmt.Printf("memory: peak RSS %.1f MB, heap in use %.1f MB\n", rep.PeakRSSMB, rep.HeapInUsMB)

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("wrote %s\n", outPath)

	var failures []string
	limit := 2 * rep.BaseP99US
	if floor := float64(p99Floor.Microseconds()); rep.BaseP99US+floor > limit {
		limit = rep.BaseP99US + floor
	}
	if rep.AbuseP99US > limit {
		failures = append(failures, fmt.Sprintf(
			"well-behaved p99 regressed under abuse: %.0fus > limit %.0fus (calm %.0fus)",
			rep.AbuseP99US, limit, rep.BaseP99US))
	}
	if rep.WellErrors > 0 {
		failures = append(failures, fmt.Sprintf(
			"well-behaved tenants saw %d non-transient errors (only 429s are tolerated)", rep.WellErrors))
	}
	if rep.AbuserRateLimited+rep.AbuserOverloaded == 0 {
		failures = append(failures, "abuser was never shed")
	}
	if rep.AbuserErrors > 0 {
		failures = append(failures, fmt.Sprintf(
			"abuser saw %d untyped errors: overload must shed or budget-kill, never crash", rep.AbuserErrors))
	}
	if len(failures) > 0 {
		fmt.Println("STORM GATE FAILED")
		for _, f := range failures {
			fmt.Println("  -", f)
		}
		os.Exit(1)
	}
	fmt.Println("storm gate passed: abuser shed, well-behaved p99 held")
}
