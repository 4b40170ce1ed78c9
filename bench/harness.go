package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// runOpts is everything one measured run of one workload depends on.
type runOpts struct {
	Workload string
	Seed     int64
	// Seconds is the length of the timed phase.
	Seconds float64
	// Clients is the closed-loop client count C (nproc by default).
	Clients int
	// Setups is how many times set-up is performed and timed; setup_s is
	// their median and the last one serves the timed phase.
	Setups int
	// Layers also collects the per-layer metrics read from outside (/proc
	// and /metrics scrapes around the timed phase).
	Layers bool
	Launch launcher
}

// runResult is what one run reports.
type runResult struct {
	Attempted int
	Failed    int
	// Samples is the number of latency samples behind p50_us and p99_us.
	Samples int
	// Scale is the machine's speed during the run relative to the reference
	// machine; every duration reported was multiplied by it.
	Scale  float64
	E2E    map[string]float64
	Layers map[string]float64
	// Notes are human-readable remarks (first failures, the op class p99
	// fell into) for the report; never parsed.
	Notes []string
}

// opResult is the outcome of one unit of closed-loop work.
type opResult struct {
	Class  uint8
	Ops    int // operations the unit stands for (1024 for a lib_ask batch)
	Failed int
}

// opFunc performs one unit of work and checks its output.
type opFunc func() opResult

// sample is one timed unit of work.
type sample struct {
	PerOp time.Duration // latency per operation of the unit
	Class uint8
}

// workload is one of the five benchmark workloads, bound to a seed.
type workload interface {
	// SetUp brings the system from nothing to the state the timed phase
	// starts from: daemons launched and ready, catalog compiled, caches
	// warm. This is what setup_s times; generating inputs and oracle
	// answers happened before, in the constructor.
	SetUp() error
	// Clients returns one op function per closed-loop client.
	Clients() []opFunc
	// Classes names the op classes Clients report.
	Classes() []string
	// Stack is the serving stack under load (nil for lib_ask).
	Stack() *stack
	// Finish runs the checks that wait until the load stopped and returns
	// how many more outputs it checked and how many were wrong.
	Finish() (attempted, failed int, notes []string)
	// LayerExtras adds workload-specific per-layer metrics; scale converts
	// durations to reference-machine time.
	LayerExtras(m map[string]float64, scale float64)
	TearDown() error
}

// closedLoop runs every client until dur has passed: each sends its next op
// only when the previous one completed.
func closedLoop(clients []opFunc, dur time.Duration) (samples []sample, attempted, failed int, elapsed time.Duration) {
	type tally struct {
		samples           []sample
		attempted, failed int
	}
	per := make([]tally, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, op := range clients {
		wg.Add(1)
		go func(t *tally, op opFunc) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				r := op()
				t1 := time.Now()
				t.samples = append(t.samples, sample{PerOp: t1.Sub(t0) / time.Duration(r.Ops), Class: r.Class})
				t.attempted += r.Ops
				t.failed += r.Failed
			}
		}(&per[i], op)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for i := range per {
		samples = append(samples, per[i].samples...)
		attempted += per[i].attempted
		failed += per[i].failed
	}
	return samples, attempted, failed, elapsed
}

// latencyUS returns the sorted per-op latencies in µs of the samples whose
// class is in keep (nil keeps all).
func latencyUS(samples []sample, keep func(class uint8) bool) []float64 {
	v := make([]float64, 0, len(samples))
	for _, s := range samples {
		if keep == nil || keep(s.Class) {
			v = append(v, float64(s.PerOp.Nanoseconds())/1e3)
		}
	}
	sort.Float64s(v)
	return v
}

func pctOrZero(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentile(sorted, p)
}

// runWorkload performs one complete run: generate, set up (Setups times),
// load for Seconds, verify, tear down.
func runWorkload(o runOpts) (*runResult, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	cal := &calibrator{clients: o.Clients}
	cal.burst()
	var setups []float64
	for i := 0; i < o.Setups; i++ {
		if i > 0 {
			if err := w.TearDown(); err != nil {
				return nil, fmt.Errorf("%s: tear down: %w", o.Workload, err)
			}
		}
		t0 := time.Now()
		if err := w.SetUp(); err != nil {
			w.TearDown()
			return nil, fmt.Errorf("%s: set up: %w", o.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		cal.burst()
	}
	res, err := measure(w, o, cal)
	if terr := w.TearDown(); err == nil && terr != nil {
		err = fmt.Errorf("%s: tear down: %w", o.Workload, terr)
	}
	if err != nil {
		return nil, err
	}
	res.E2E["setup_s"] = median(setups) * res.Scale
	return res, nil
}

// segmentSeconds is the length of one slice of the timed phase; the
// reference kernel runs between slices (see calibrate.go).
const segmentSeconds = 0.5

// segment is one slice of the timed phase.
type segment struct {
	samples           []sample
	attempted, failed int
	elapsed           time.Duration
	srv, rtr, own     time.Duration // CPU spent during the slice
}

// measure runs the timed phase against a set-up workload, in slices of
// segmentSeconds with a burst of the reference kernel after each, and
// reports every duration in reference-machine time.
func measure(w workload, o runOpts, cal *calibrator) (*runResult, error) {
	st := w.Stack()
	var mSrv0, mRtr0 map[string]float64
	var err error
	if st != nil && o.Layers {
		if mSrv0, err = scrape(st.Direct); err != nil {
			return nil, err
		}
		if st.Routed != "" {
			if mRtr0, err = scrape(st.Routed); err != nil {
				return nil, err
			}
		}
	}
	clients := w.Clients()
	nseg := int(math.Ceil(o.Seconds / segmentSeconds))
	segDur := time.Duration(o.Seconds / float64(nseg) * float64(time.Second))
	segs := make([]segment, nseg)
	var srvEnd, rtrEnd usage
	for i := range segs {
		sg := &segs[i]
		var srv0, rtr0 usage
		if st != nil {
			if srv0, rtr0, err = st.Usage(); err != nil {
				return nil, err
			}
		}
		own0 := selfUsage()
		sg.samples, sg.attempted, sg.failed, sg.elapsed = closedLoop(clients, segDur)
		sg.own = selfUsage().CPU - own0.CPU
		if st != nil {
			if srvEnd, rtrEnd, err = st.Usage(); err != nil {
				return nil, err
			}
			sg.srv, sg.rtr = srvEnd.CPU-srv0.CPU, rtrEnd.CPU-rtr0.CPU
			if st.fdbd == nil {
				// In-process stack: daemons and generator are one process.
				sg.srv = sg.own
			}
		}
		cal.burst()
	}
	scale := cal.scale()

	// Every metric is a median over slices (for percentiles, over groups of
	// slices large enough to hold the percentile), which disturbed slices
	// cannot move.
	var all []sample
	var perSec, cpuPerOp, srvPerOp, rtrPerOp, ownPerOp []float64
	attempted, failed := 0, 0
	for i := range segs {
		sg := &segs[i]
		attempted += sg.attempted
		failed += sg.failed
		for _, sm := range sg.samples {
			sm.PerOp = time.Duration(float64(sm.PerOp) * scale)
			all = append(all, sm)
		}
		if sg.attempted == 0 {
			continue
		}
		ops := float64(sg.attempted)
		perSec = append(perSec, float64(sg.attempted-sg.failed)/(sg.elapsed.Seconds()*scale))
		ref := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 * scale / ops }
		srvPerOp, rtrPerOp, ownPerOp = append(srvPerOp, ref(sg.srv)), append(rtrPerOp, ref(sg.rtr)), append(ownPerOp, ref(sg.own))
		if st == nil {
			// lib_ask: the system under test is this process.
			cpuPerOp = append(cpuPerOp, ref(sg.own))
		} else {
			cpuPerOp = append(cpuPerOp, ref(sg.srv+sg.rtr))
		}
	}
	if attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %.1fs", o.Workload, o.Seconds)
	}
	p50, p95, p99 := groupedPercentiles(segs, scale)
	res := &runResult{Samples: len(all), Scale: scale, E2E: map[string]float64{}, Layers: map[string]float64{}}
	res.E2E["ops_per_s"] = median(perSec)
	res.E2E["p50_us"] = p50
	res.E2E["p95_us"] = p95
	res.E2E["cpu_us_per_op"] = median(cpuPerOp)
	if st == nil {
		// lib_ask: this process is the system under test, but its peak also
		// holds the generator's and oracle's garbage; what the snapshots and
		// plan caches keep resident is what is left once the heap is
		// collected and returned to the OS.
		debug.FreeOSMemory()
		own, err := procUsage(os.Getpid())
		if err != nil {
			return nil, err
		}
		res.E2E["rss_mb"] = own.ResidentMB
	} else {
		res.E2E["rss_mb"] = srvEnd.RSSMB + rtrEnd.RSSMB
	}
	classes := w.Classes()
	if len(classes) > 1 {
		res.Notes = append(res.Notes, "p50 falls in class "+classAt(all, classes, p50)+
			", p95 in class "+classAt(all, classes, p95)+", p99 in class "+classAt(all, classes, p99))
	}

	if o.Layers {
		L := res.Layers
		for _, name := range outsideLayerMetrics {
			L[name] = 0
		}
		L["client.machine_speed"] = scale
		L["client.p99_us"] = p99
		L["client.cpu_us_per_op"] = median(ownPerOp)
		L["client.cpu_share"] = 1
		if st != nil {
			L["server.cpu_us_per_op"] = median(srvPerOp)
			L["shard.cpu_us_per_op"] = median(rtrPerOp)
			if total := L["server.cpu_us_per_op"] + L["shard.cpu_us_per_op"] + L["client.cpu_us_per_op"]; total > 0 {
				L["client.cpu_share"] = L["client.cpu_us_per_op"] / total
			}
			L["server.rss_mb"] = srvEnd.RSSMB
			L["shard.rss_mb"] = rtrEnd.RSSMB
			mSrv1, err := scrape(st.Direct)
			if err != nil {
				return nil, err
			}
			serverLayers(L, mSrv0, mSrv1, float64(attempted))
			L["server.handler_us_mean"] *= scale
			if st.Routed != "" {
				mRtr1, err := scrape(st.Routed)
				if err != nil {
					return nil, err
				}
				if n := delta(mRtr0, mRtr1, "fdbrouter_proxy_seconds_count"); n > 0 {
					L["shard.proxy_us_mean"] = delta(mRtr0, mRtr1, "fdbrouter_proxy_seconds_sum") / n * 1e6 * scale
				}
			}
		}
		for i, c := range classes {
			name := o.Workload + "." + c + "_p50_us"
			if _, ok := L[name]; ok {
				ci := uint8(i)
				L[name] = pctOrZero(latencyUS(all, func(k uint8) bool { return k == ci }), 50)
			}
		}
	}

	moreAttempted, moreFailed, notes := w.Finish()
	if o.Layers {
		w.LayerExtras(res.Layers, scale)
	}
	res.Attempted = attempted + moreAttempted
	res.Failed = failed + moreFailed
	res.Notes = append(res.Notes, notes...)
	for name, v := range res.E2E {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", o.Workload, name, v)
		}
	}
	return res, nil
}

// minPercentileSamples is how many latency samples a group of slices needs
// before its percentiles are taken: 25 samples lie beyond the 95th, five
// beyond the (unbounded) 99th.
const minPercentileSamples = 500

// groupedPercentiles returns p50, p95 and p99 of the per-op latency in µs,
// each the median over groups of consecutive slices of that group's
// percentile. Groups are as small as minPercentileSamples allows; a run with fewer
// samples than that is one group.
func groupedPercentiles(segs []segment, scale float64) (p50, p95, p99 float64) {
	total := 0
	for i := range segs {
		total += len(segs[i].samples)
	}
	if total == 0 {
		return 0, 0, 0
	}
	per := (minPercentileSamples*len(segs) + total - 1) / total // slices per group
	if per < 1 {
		per = 1
	}
	groups := len(segs) / per
	if groups < 1 {
		groups = 1
	}
	var p50s, p95s, p99s []float64
	for g := 0; g < groups; g++ {
		lo, hi := g*per, (g+1)*per
		if g == groups-1 {
			hi = len(segs)
		}
		var pool []sample
		for _, sg := range segs[lo:hi] {
			pool = append(pool, sg.samples...)
		}
		if lat := latencyUS(pool, nil); len(lat) > 0 {
			p50s = append(p50s, percentile(lat, 50)*scale)
			p95s = append(p95s, percentile(lat, 95)*scale)
			p99s = append(p99s, percentile(lat, 99)*scale)
		}
	}
	return median(p50s), median(p95s), median(p99s)
}

// classAt names the class of the sample whose latency is closest to us.
func classAt(samples []sample, classes []string, us float64) string {
	best, bestDiff := 0, math.Inf(1)
	for i, s := range samples {
		if d := math.Abs(float64(s.PerOp.Nanoseconds())/1e3 - us); d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return classes[samples[best].Class]
}

// outsideLayerMetrics are the per-layer metrics read from outside the
// daemons around the timed phase; every run reports all of them, zero where
// the workload does not cross the layer.
var outsideLayerMetrics = []string{
	"server.cpu_us_per_op", "shard.cpu_us_per_op", "client.cpu_us_per_op", "client.cpu_share",
	"client.machine_speed", "client.p99_us",
	"server.rss_mb", "shard.rss_mb", "server.cache_hit_ratio",
	"core.plan_misses_per_op", "core.plan_lookups_per_op",
	"server.handler_us_mean", "shard.proxy_us_mean",
	"engine.algoq_steps_per_op", "engine.rule_firings_per_op",
	"engine.terms_interned_per_op", "engine.fixpoint_rounds_per_op",
	"store.wal_bytes_per_write", "watch.delta_p50_ms", "watch.delivered_ratio",
	"answers.uniform_p50_us", "answers.nonuniform_p50_us",
	"write_mix.put_p50_us", "write_mix.facts_p50_us", "write_mix.read_p50_us",
}

// queryEndpoints are the fdbd endpoints the workloads exercise.
var queryEndpoints = []string{"ask", "answers", "facts", "put"}

// serverLayers derives the fdbd-side per-layer metrics from two /metrics
// scrapes.
func serverLayers(L map[string]float64, before, after map[string]float64, ops float64) {
	d := func(name string) float64 { return delta(before, after, name) }
	var hits, misses, durSum, durCount float64
	for _, ep := range queryEndpoints {
		label := `{endpoint="` + ep + `"}`
		hits += d("funcdbd_cache_hits_total" + label)
		misses += d("funcdbd_cache_misses_total" + label)
		durSum += d("funcdbd_request_duration_seconds_sum" + label)
		durCount += d("funcdbd_request_duration_seconds_count" + label)
	}
	if hits+misses > 0 {
		L["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	if durCount > 0 {
		L["server.handler_us_mean"] = durSum / durCount * 1e6
	}
	planMiss := d("funcdb_engine_plan_cache_misses_total")
	L["core.plan_misses_per_op"] = planMiss / ops
	L["core.plan_lookups_per_op"] = (planMiss + d("funcdb_engine_plan_cache_hits_total")) / ops
	L["engine.algoq_steps_per_op"] = d("funcdb_engine_algoq_steps_total") / ops
	L["engine.rule_firings_per_op"] = d("funcdb_engine_rule_firings_total") / ops
	L["engine.terms_interned_per_op"] = d("funcdb_engine_terms_interned_total") / ops
	L["engine.fixpoint_rounds_per_op"] = d("funcdb_engine_fixpoint_rounds_total") / ops
	if writes := d(`funcdbd_request_duration_seconds_count{endpoint="facts"}`) +
		d(`funcdbd_request_duration_seconds_count{endpoint="put"}`); writes > 0 {
		L["store.wal_bytes_per_write"] = d("funcdbd_wal_bytes") / writes
	}
}

// newHTTPClient returns a client keeping up to conns idle keep-alive
// connections per host, so C closed-loop clients reuse C connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}}
}
