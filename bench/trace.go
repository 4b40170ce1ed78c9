package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"funcdb/internal/ast"
	"funcdb/internal/core"
	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/minimize"
	"funcdb/internal/obs"
	"funcdb/internal/parser"
	"funcdb/internal/query"
	"funcdb/internal/registry"
	"funcdb/internal/rewrite"
	"funcdb/internal/server"
	"funcdb/internal/shard"
	"funcdb/internal/specgraph"
	"funcdb/internal/store"
	"funcdb/internal/subst"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// traceConfig sizes the traced run. Counts, not seconds: the traced run
// measures single calls, one goroutine, and its numbers never feed the
// end-to-end metrics.
type traceConfig struct {
	Seed int64
	// AskOps, AnswersOps and WriteReps are how many operations of each
	// chain are sampled.
	AskOps, AnswersOps, WriteReps int
	// DaemonOps is how many loopback asks carry "trace":true for the
	// record-only comparison with the daemon's own spans.
	DaemonOps int
	// Out, when set, receives the spans as JSON.
	Out     string
	TmpRoot string
}

var defaultTrace = traceConfig{AskOps: 5 * hotPoolSize, AnswersOps: 96, WriteReps: 20, DaemonOps: 200}

// span is one timed call into a layer's public entry point. Spans of one
// sampled operation share Op; Parent names the entry point directly above
// (the caller in the serving path), so a layer's self time is its span
// minus its child's.
type span struct {
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans in memory.
type tracer struct {
	start time.Time
	on    bool
	spans []span
}

// call times f and, when recording, keeps the span.
func (t *tracer) call(op int, name, parent string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	if t.on {
		t.spans = append(t.spans, span{op, name, parent, t0.Sub(t.start).Nanoseconds(), t1.Sub(t.start).Nanoseconds()})
	}
	return t1.Sub(t0)
}

// tracedMetrics are the per-layer metrics the traced run produces.
var tracedMetrics = []string{
	"specgraph.walk_ns", "core.plan_ask_ns", "core.text_hit_ns", "core.text_hit_allocs",
	"parser.query_parse_us", "core.prepare_miss_us", "core.prepare_miss_allocs",
	"registry.entry_ask_ns", "server.ask_hit_us", "server.ask_miss_us",
	"server.ask_hit_allocs", "server.ask_hit_bytes",
	"loopback.ask_us", "loopback.ask_allocs", "loopback.conns_per_kop",
	"shard.route_ask_us", "shard.ask_allocs", "shard.backend_conns_per_kop",
	"server.ask_self_us", "loopback.ask_self_us", "shard.ask_self_us",
	"query.incremental_us", "query.recompute_us", "query.enumerate_us", "query.answers_allocs",
	"registry.answers_render_us", "server.answers_us",
	"core.open_us", "engine.solve_us", "specgraph.build_us", "minimize.minimize_us",
	"core.snapshot_publish_us", "core.extend_us", "core.extend_recompile_us",
	"registry.extend_facts_us", "store.append_self_us", "trace.overhead_share",
}

// traceReport is what the traced run writes to trace.json.
type traceReport struct {
	Seed int64 `json:"seed"`
	// MachineSpeed is the sandbox's speed relative to the reference machine
	// during the traced run; Metrics and Waterfall are multiplied by it,
	// Spans and DaemonSpans are as measured.
	MachineSpeed float64            `json:"machine_speed"`
	Metrics      map[string]float64 `json:"metrics"`
	// Waterfall is the ground-ask chain from the DFA walk out to the
	// routed request: each stage's span and self time (medians over the
	// sampled ops, µs).
	Waterfall []waterfallRow `json:"waterfall"`
	// ChainSumOverRoute is the sum of the waterfall's self times divided
	// by the median routed ask.
	ChainSumOverRoute float64 `json:"chain_sum_over_route"`
	// DaemonSpans are the daemon's own span durations (µs) from
	// "trace":true asks over loopback, kept beside the external self
	// times for a later in-program tracing change to gate on.
	DaemonSpans map[string]summary `json:"daemon_spans"`
	Spans       []span             `json:"spans"`
}

type waterfallRow struct {
	Stage  string  `json:"stage"`
	Layer  string  `json:"layer"`
	SpanUS float64 `json:"span_us"`
	SelfUS float64 `json:"self_us"`
}

// loweredAsk is a ground ask lowered for FlatDFA.Walk by hand, outside
// core: the symbol string of its term and the atom to look for.
type loweredAsk struct {
	fd   *specgraph.FlatDFA
	syms []int32
	atom facts.AtomID
}

// lowerAsk does for one single-atom ground query what core's plan compiler
// does, against the live database's identity-quotient tables.
func lowerAsk(db *core.Database, fd *specgraph.FlatDFA, w *facts.World, text string) (loweredAsk, error) {
	q, err := db.ParseQuery(text)
	if err != nil {
		return loweredAsk{}, err
	}
	if len(q.Atoms) != 1 || q.Atoms[0].FT == nil {
		return loweredAsk{}, fmt.Errorf("not a single functional atom: %.60s", text)
	}
	pure, err := rewrite.EliminateMixed(&ast.Program{Tab: db.Tab(), Facts: []ast.Atom{q.Atoms[0]}})
	if err != nil {
		return loweredAsk{}, err
	}
	a := &pure.Facts[0]
	t, ok := subst.GroundFTerm(db.Universe(), a.FT)
	if !ok {
		return loweredAsk{}, fmt.Errorf("not ground: %.60s", text)
	}
	fns := db.Universe().Symbols(t)
	syms := make([]int32, len(fns))
	for i, fn := range fns {
		if syms[i], ok = fd.SymIndex(fn); !ok {
			return loweredAsk{}, fmt.Errorf("symbol outside the alphabet in %.60s", text)
		}
	}
	args := make([]symbols.ConstID, len(a.Args))
	for i, d := range a.Args {
		args[i] = d.Const
	}
	return loweredAsk{fd, syms, w.Atom(a.Pred, w.Tuple(args))}, nil
}

// connCounter counts connections a server accepted.
type connCounter struct{ n atomic.Int64 }

func (c *connCounter) hook(_ net.Conn, s http.ConnState) {
	if s == http.StateNew {
		c.n.Add(1)
	}
}

// allocsPer runs f n times and returns mallocs and bytes per call, for the
// whole process (a loopback call therefore includes both ends).
func allocsPer(n int, f func(i int)) (allocs, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traceStack is the in-process copy of the serving stack the traced run
// calls into at every level.
type traceStack struct {
	regHit, regMiss *registry.Registry
	hit, miss       http.Handler // LRU on / CacheSize:-1
	direct, front   *loopbackServer
	directConns     connCounter
	rt              *shard.Router
	src             *shard.Source
	client          *http.Client
}

func newTraceStack(progs map[string]string) (*traceStack, error) {
	ts := &traceStack{regHit: registry.New(core.Options{}), regMiss: registry.New(core.Options{})}
	for name, src := range progs {
		for _, reg := range []*registry.Registry{ts.regHit, ts.regMiss} {
			if _, err := reg.PutProgram(name, []byte(src)); err != nil {
				return nil, err
			}
		}
	}
	ts.hit = server.New(ts.regHit, server.Config{}).Handler()
	ts.miss = server.New(ts.regMiss, server.Config{CacheSize: -1}).Handler()
	var err error
	if ts.direct, err = serveLoopback(ts.hit, ts.directConns.hook); err != nil {
		return nil, err
	}
	ts.src = shard.NewSource(oneGroupMap("http://" + ts.direct.Addr))
	ts.rt = shard.NewRouter(ts.src, shard.Options{})
	if ts.front, err = serveLoopback(ts.rt, nil); err != nil {
		ts.direct.Close()
		return nil, err
	}
	ts.client = newHTTPClient(2)
	return ts, nil
}

func (ts *traceStack) Close() {
	ts.client.CloseIdleConnections()
	ts.rt.Close()
	ts.src.Close()
	ts.front.Close()
	ts.direct.Close()
}

// serve calls a handler directly, as net/http would, without a socket.
func serve(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// runTrace performs the traced run and returns every traced metric.
func runTrace(cfg traceConfig) (*traceReport, error) {
	ctx := context.Background()
	tr := &tracer{start: time.Now(), on: true}
	M := make(map[string]float64, len(tracedMetrics))
	for _, name := range tracedMetrics {
		M[name] = 0
	}
	rep := &traceReport{Seed: cfg.Seed, Metrics: M}
	ts, err := newTraceStack(catalog())
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	// The reference kernel runs between blocks, as it does between the
	// slices of a timed phase; durations are reported in reference-machine
	// time (spans in trace.json stay raw, with the factor beside them).
	cal := &calibrator{clients: runtime.NumCPU()}
	cal.burst()
	if err := traceAsk(ctx, cfg, tr, ts, rep, cal); err != nil {
		return nil, err
	}
	cal.burst()
	if err := traceAnswers(ctx, cfg, tr, ts, M); err != nil {
		return nil, err
	}
	cal.burst()
	if err := traceWrites(cfg, tr, M); err != nil {
		return nil, err
	}
	cal.burst()
	rep.MachineSpeed = cal.scale()
	for _, d := range perLayer {
		if _, traced := M[d.Name]; traced && (d.Unit == "ns" || d.Unit == "us") {
			M[d.Name] *= rep.MachineSpeed
		}
	}
	for i := range rep.Waterfall {
		rep.Waterfall[i].SpanUS *= rep.MachineSpeed
		rep.Waterfall[i].SelfUS *= rep.MachineSpeed
	}
	rep.Spans = tr.spans
	if cfg.Out != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.Out), 0o755); err != nil {
			return nil, err
		}
		raw, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.Out, append(raw, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// series collects one duration per sampled op for each span name.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
func (s series) med(name string) float64    { return median(s[name]) }

// selfMed is the median over ops of span minus child.
func (s series) selfMed(name, child string) float64 {
	v := make([]float64, len(s[name]))
	for i := range v {
		v[i] = selfTime(s[name][i], s[child][i])
	}
	return median(v)
}

// groupMean summarizes a series whose op i used input i%groups: the median
// over each input's repeats (robust against a descheduled call), then the
// mean over inputs (the inputs differ 100x in size, and a workload cycling
// through them pays their mean, not their median).
func groupMean(v []float64, groups int) float64 {
	if len(v) < groups {
		groups = len(v)
	}
	if groups == 0 {
		return 0
	}
	sum := 0.0
	for g := 0; g < groups; g++ {
		var reps []float64
		for i := g; i < len(v); i += groups {
			reps = append(reps, v[i])
		}
		sum += median(reps)
	}
	return sum / float64(groups)
}

// traceAsk walks the ground-ask chain innermost first, every entry point
// with the same query, then counts allocations and connections per entry
// point and the overhead of recording spans.
func traceAsk(ctx context.Context, cfg traceConfig, tr *tracer, ts *traceStack, rep *traceReport, cal *calibrator) error {
	M := rep.Metrics
	pool := hotPool(cfg.Seed)
	type prepared struct {
		low   loweredAsk
		plan  *core.Plan
		snap  *core.Snapshot
		body  []byte
		path  string
		truth bool
	}
	snaps := make(map[string]*core.Snapshot)
	lives := make(map[string]*core.Database)
	flats := make(map[string]*specgraph.FlatDFA)
	for name, src := range catalog() {
		db, err := core.Open(src, core.Options{})
		if err != nil {
			return err
		}
		if snaps[name], err = db.Snapshot(); err != nil {
			return err
		}
		// A second database for the hand lowering: it interns query terms
		// into the live universe, which the snapshot above must not share.
		if lives[name], err = core.Open(src, core.Options{}); err != nil {
			return err
		}
		sp, err := lives[name].Graph()
		if err != nil {
			return err
		}
		if flats[name] = sp.Freeze().Flat(); flats[name] == nil {
			return fmt.Errorf("%s: no flat tables", name)
		}
	}
	prep := make([]prepared, len(pool))
	for i, q := range pool {
		p := &prep[i]
		sp, _ := lives[q.DB].Graph()
		var err error
		if p.low, err = lowerAsk(lives[q.DB], flats[q.DB], sp.W, q.Text); err != nil {
			return err
		}
		if got := p.low.fd.StateHas(p.low.fd.Walk(p.low.syms), p.low.atom); got != q.Truth {
			return fmt.Errorf("hand-lowered walk answers %v, want %v: %.60s", got, q.Truth, q.Text)
		}
		p.snap = snaps[q.DB]
		if p.plan, err = p.snap.Prepare(ctx, q.Text); err != nil {
			return err
		}
		p.body, p.path, p.truth = askBody(q.Text), "/v1/db/"+q.DB+"/ask", q.Truth
	}
	direct, routed := "http://"+ts.direct.Addr, "http://"+ts.front.Addr
	post := func(base string, p *prepared) error {
		var resp askResponse
		if err := postJSON(ts.client, http.MethodPost, base+p.path, p.body, &resp); err != nil {
			return err
		}
		if resp.Answer != p.truth {
			return fmt.Errorf("%s%s answered %v, want %v", base, p.path, resp.Answer, p.truth)
		}
		return nil
	}
	// Warm every level: plan caches, answer LRU, connections, health probe.
	for pass := 0; pass < 2; pass++ {
		for i := range prep {
			p := &prep[i]
			serve(ts.hit, p.path, p.body)
			serve(ts.miss, p.path, p.body)
			if err := post(direct, p); err != nil {
				return err
			}
			if err := post(routed, p); err != nil {
				return err
			}
		}
	}

	S := make(series)
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	check := func(got bool, err error, p *prepared, where string) {
		if err == nil && got != p.truth {
			err = fmt.Errorf("%s answered %v, want %v", where, got, p.truth)
		}
		keep(err)
	}
	// One block per entry point, innermost first: each level is timed in
	// its own steady state (interleaving levels op by op lets a level pay
	// for waking threads the previous level left parked). Span i of every
	// block carries op id i and the same query.
	text := func(op int) string { return pool[op%len(pool)].Text }
	levels := []struct {
		key, name, parent string
		toUnit            func(time.Duration) float64
		f                 func(op int, p *prepared)
	}{
		{"walk", "specgraph.walk", "core.plan_ask", ns, func(op int, p *prepared) {
			check(p.low.fd.StateHas(p.low.fd.Walk(p.low.syms), p.low.atom), nil, p, "walk")
		}},
		{"plan_ask", "core.plan_ask", "core.snapshot_ask", ns, func(op int, p *prepared) {
			got, err := p.plan.Ask(ctx)
			check(got, err, p, "Plan.Ask")
		}},
		{"text_hit", "core.snapshot_ask", "registry.entry_ask", ns, func(op int, p *prepared) {
			got, err := p.snap.Ask(ctx, text(op))
			check(got, err, p, "Snapshot.Ask")
		}},
		{"parse", "parser.query_parse", "core.prepare_miss", us, func(op int, _ *prepared) {
			novel := wideQuery(cfg.Seed, op)
			_, err := snaps[novel.DB].ParseQuery(novel.Text)
			keep(err)
		}},
		{"prepare_miss", "core.prepare_miss", "server.ask_miss", us, func(op int, _ *prepared) {
			novel := wideQuery(cfg.Seed, op)
			_, err := snaps[novel.DB].Prepare(ctx, novel.Text)
			keep(err)
		}},
		{"entry_ask", "registry.entry_ask", "server.ask_hit", ns, func(op int, p *prepared) {
			e, ok := ts.regHit.Get(pool[op%len(pool)].DB)
			if !ok {
				keep(fmt.Errorf("registry lost %s", pool[op%len(pool)].DB))
				return
			}
			got, err := e.Ask(ctx, text(op))
			check(got, err, p, "Entry.Ask")
		}},
		{"server_hit", "server.ask_hit", "loopback.ask", us, func(op int, p *prepared) {
			if rec := serve(ts.hit, p.path, p.body); rec.Code != http.StatusOK {
				keep(fmt.Errorf("handler status %d", rec.Code))
			}
		}},
		{"server_miss", "server.ask_miss", "", us, func(op int, p *prepared) {
			if rec := serve(ts.miss, p.path, p.body); rec.Code != http.StatusOK {
				keep(fmt.Errorf("handler status %d", rec.Code))
			}
		}},
		{"loopback", "loopback.ask", "shard.route_ask", us, func(op int, p *prepared) { keep(post(direct, p)) }},
		{"routed", "shard.route_ask", "", us, func(op int, p *prepared) { keep(post(routed, p)) }},
	}
	for _, lv := range levels {
		for op := 0; op < cfg.AskOps; op++ {
			p := &prep[op%len(prep)]
			S.add(lv.key, lv.toUnit(tr.call(op, lv.name, lv.parent, func() { lv.f(op, p) })))
		}
		cal.burst()
	}
	if firstErr != nil {
		return firstErr
	}
	// Pool-cycling levels group by pool text; the novel-text levels by
	// family (wideQuery assigns slot%3).
	G := func(key string) float64 {
		if key == "parse" || key == "prepare_miss" {
			return groupMean(S[key], int(numFamilies))
		}
		return groupMean(S[key], len(pool))
	}
	M["specgraph.walk_ns"] = G("walk")
	M["core.plan_ask_ns"] = G("plan_ask")
	M["core.text_hit_ns"] = G("text_hit")
	M["parser.query_parse_us"] = G("parse")
	M["core.prepare_miss_us"] = G("prepare_miss")
	M["registry.entry_ask_ns"] = G("entry_ask")
	M["server.ask_hit_us"] = G("server_hit")
	M["server.ask_miss_us"] = G("server_miss")
	M["loopback.ask_us"] = G("loopback")
	M["shard.route_ask_us"] = G("routed")

	// The waterfall, in µs, from the walk outwards: a stage's self time is
	// its span minus the span of the stage beneath it.
	chain := []struct {
		stage, layer, key string
		scale             float64
	}{
		{"FlatDFA.Walk+StateHas", "specgraph", "walk", 1e-3},
		{"Plan.Ask", "core", "plan_ask", 1e-3},
		{"Snapshot.Ask (text hit)", "core", "text_hit", 1e-3},
		{"Registry.Get+Entry.Ask", "registry", "entry_ask", 1e-3},
		{"Handler.ServeHTTP (LRU hit)", "server", "server_hit", 1},
		{"loopback POST", "loopback", "loopback", 1},
		{"routed POST", "shard", "routed", 1},
	}
	sum, below := 0.0, 0.0
	for _, c := range chain {
		row := waterfallRow{Stage: c.stage, Layer: c.layer, SpanUS: G(c.key) * c.scale}
		row.SelfUS = selfTime(row.SpanUS, below)
		below = row.SpanUS
		sum += row.SelfUS
		rep.Waterfall = append(rep.Waterfall, row)
	}
	M["server.ask_self_us"] = rep.Waterfall[4].SelfUS
	M["loopback.ask_self_us"] = rep.Waterfall[5].SelfUS
	M["shard.ask_self_us"] = rep.Waterfall[6].SelfUS
	if below > 0 {
		rep.ChainSumOverRoute = sum / below
	}

	// Exact counts per call.
	n := cfg.AskOps
	at := func(i int) *prepared { return &prep[i%len(prep)] }
	M["core.text_hit_allocs"], _ = allocsPer(n, func(i int) { at(i).snap.Ask(ctx, pool[i%len(pool)].Text) })
	M["core.prepare_miss_allocs"], _ = allocsPer(n, func(i int) {
		q := wideQuery(cfg.Seed, widePoolSize/2+i)
		snaps[q.DB].Prepare(ctx, q.Text)
	})
	M["server.ask_hit_allocs"], M["server.ask_hit_bytes"] = allocsPer(n, func(i int) { serve(ts.hit, at(i).path, at(i).body) })
	conns0 := ts.directConns.n.Load()
	M["loopback.ask_allocs"], _ = allocsPer(n, func(i int) { keep(post(direct, at(i))) })
	conns1 := ts.directConns.n.Load()
	M["shard.ask_allocs"], _ = allocsPer(n, func(i int) { keep(post(routed, at(i))) })
	conns2 := ts.directConns.n.Load()
	M["loopback.conns_per_kop"] = float64(conns1-conns0) / float64(n) * 1000
	M["shard.backend_conns_per_kop"] = float64(conns2-conns1) / float64(n) * 1000

	// Cost of recording: the same loopback asks with the recorder off and
	// on, alternating per op so drift hits both.
	var off, on []float64
	saved := tr.spans
	for i := 0; i < n; i++ {
		for _, rec := range []bool{false, true} {
			tr.on = rec
			d := us(tr.call(-1, "loopback.ask", "", func() { keep(post(direct, at(i))) }))
			if rec {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	tr.on, tr.spans = true, saved
	if base := groupMean(off, len(pool)); base > 0 {
		M["trace.overhead_share"] = (groupMean(on, len(pool)) - base) / base
	}

	// The daemon's own view of the same asks (record only).
	byName := make(map[string][]float64)
	for i := 0; i < cfg.DaemonOps; i++ {
		p := at(i)
		var resp struct {
			Trace *obs.Report `json:"trace"`
		}
		body := append(append([]byte(nil), p.body[:len(p.body)-1]...), `,"trace":true}`...)
		if err := postJSON(ts.client, http.MethodPost, direct+p.path, body, &resp); err != nil {
			return err
		}
		if resp.Trace == nil {
			return fmt.Errorf("daemon returned no trace for a \"trace\":true ask")
		}
		byName["request"] = append(byName["request"], float64(resp.Trace.DurUS))
		for _, sp := range resp.Trace.Spans {
			byName[sp.Name] = append(byName[sp.Name], float64(sp.DurUS))
		}
	}
	rep.DaemonSpans = make(map[string]summary, len(byName))
	for name, v := range byName {
		rep.DaemonSpans[name] = summarize(v)
	}
	return firstErr
}

// traceAnswers walks the Answers chain: Plan.Answers (uniform: Theorem 5.1
// incremental; non-uniform: recompute), Enumerate, Entry.Answers, handler.
func traceAnswers(ctx context.Context, cfg traceConfig, tr *tracer, ts *traceStack, M map[string]float64) error {
	uniform, nonUniform := answersPool()
	snaps := make(map[string]*core.Snapshot)
	for _, name := range familyDB {
		e, _ := ts.regMiss.Get(name)
		s, err := e.Database().Snapshot()
		if err != nil {
			return err
		}
		snaps[name] = s
	}
	S := make(series)
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// A stride coprime to both pool sizes visits every family and depth.
	const stride = 41
	var plans []*core.Plan
	for op := 0; op < cfg.AnswersOps; op++ {
		qu := uniform[op*stride%len(uniform)]
		qn := nonUniform[op*stride%len(nonUniform)]
		planU, err := snaps[qu.DB].Prepare(ctx, qu.Text)
		if err != nil {
			return err
		}
		planN, err := snaps[qn.DB].Prepare(ctx, qn.Text)
		if err != nil {
			return err
		}
		plans = append(plans, planU)
		id := 1_000_000 + op
		var ans *query.Answers
		inc := us(tr.call(id, "query.incremental", "registry.entry_answers", func() { ans, err = planU.Answers(ctx) }))
		if err != nil {
			return err
		}
		enum := us(tr.call(id, "query.enumerate", "registry.entry_answers", func() {
			n := 0
			keep(ans.EnumerateContext(ctx, qu.Depth, func(term.Term, []symbols.ConstID) bool {
				n++
				return n < answersLimit
			}))
		}))
		S.add("incremental", inc)
		S.add("enumerate", enum)
		S.add("recompute", us(tr.call(id, "query.recompute", "", func() {
			_, err := planN.Answers(ctx)
			keep(err)
		})))
		entry := us(tr.call(id, "registry.entry_answers", "server.answers", func() {
			e, _ := ts.regMiss.Get(qu.DB)
			_, _, err := e.Answers(ctx, qu.Text, core.WithDepth(qu.Depth), core.WithLimit(answersLimit))
			keep(err)
		}))
		S.add("render", selfTime(entry, inc+enum))
		S.add("server", us(tr.call(id, "server.answers", "", func() {
			if rec := serve(ts.miss, "/v1/db/"+qu.DB+"/answers", answersBody(qu.Text, qu.Depth)); rec.Code != http.StatusOK {
				keep(fmt.Errorf("answers handler status %d", rec.Code))
			}
		})))
	}
	M["query.incremental_us"] = S.med("incremental")
	M["query.enumerate_us"] = S.med("enumerate")
	M["query.recompute_us"] = S.med("recompute")
	M["registry.answers_render_us"] = S.med("render")
	M["server.answers_us"] = S.med("server")
	M["query.answers_allocs"], _ = allocsPer(len(plans), func(i int) {
		_, err := plans[i].Answers(ctx)
		keep(err)
	})
	return firstErr
}

// traceWrites walks the write chain on the write_mix programs: parse,
// solve, Algorithm Q, minimize, Open, snapshot publish, Extend (fast path
// and recompile) and Registry.ExtendFacts with and without a durable store.
// Each metric is the mean over the three programs, median over reps.
func traceWrites(cfg traceConfig, tr *tracer, M map[string]float64) error {
	tmp, err := os.MkdirTemp(cfg.TmpRoot, "trace-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	S := make(series)
	names := []string{"open", "solve", "build", "minimize", "publish", "extend", "recompile", "facts", "facts_store"}
	nv := float64(len(writeVariants))
	for rep := 0; rep < cfg.WriteReps; rep++ {
		sum := make(map[string]float64, len(names))
		r := newRNG(cfg.Seed, 1<<35+uint64(rep))
		for vi, v := range writeVariants {
			id := 2_000_000 + rep*len(writeVariants) + vi
			shallow := factText(v.fam, false, 0, &r)
			deep := factText(v.fam, true, 8, &r)
			var db *core.Database
			var err error
			tr.call(id, "parser.parse", "core.open", func() { _, err = parser.Parse(v.src) })
			if err != nil {
				return err
			}
			sum["open"] += us(tr.call(id, "core.open", "", func() { db, err = core.Open(v.src, core.Options{}) }))
			if err != nil {
				return err
			}
			// The publish pipeline stage by stage, as FromProgram and
			// Snapshot run it.
			res, err := parser.Parse(v.src)
			if err != nil {
				return err
			}
			pp, err := rewrite.Prepare(res.Program)
			if err != nil {
				return err
			}
			eng, err := engine.New(pp, term.NewUniverse(), facts.NewWorld(), engine.Options{})
			if err != nil {
				return err
			}
			sum["solve"] += us(tr.call(id, "engine.solve", "core.snapshot_first", func() { err = eng.Solve() }))
			if err != nil {
				return err
			}
			var sp *specgraph.Spec
			sum["build"] += us(tr.call(id, "specgraph.build", "core.snapshot_first", func() { sp, err = specgraph.Build(eng, specgraph.Options{}) }))
			if err != nil {
				return err
			}
			sum["minimize"] += us(tr.call(id, "minimize.minimize", "core.snapshot_first", func() { _, err = minimize.Minimize(sp) }))
			if err != nil {
				return err
			}
			tr.call(id, "core.snapshot_first", "", func() { _, err = db.Snapshot() })
			if err != nil {
				return err
			}
			sum["extend"] += us(tr.call(id, "core.extend", "registry.extend_facts", func() { err = db.Extend(shallow) }))
			if err != nil {
				return err
			}
			sum["publish"] += us(tr.call(id, "core.snapshot_publish", "", func() { _, err = db.Snapshot() }))
			if err != nil {
				return err
			}
			sum["recompile"] += us(tr.call(id, "core.extend_recompile", "", func() { err = db.Extend(deep) }))
			if err != nil {
				return err
			}
			for _, durable := range []bool{false, true} {
				reg := registry.New(core.Options{})
				var st *store.Store
				if durable {
					dir := filepath.Join(tmp, fmt.Sprintf("r%dv%d", rep, vi))
					if st, err = store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways}); err != nil {
						return err
					}
					if _, err = st.Recover(reg); err != nil {
						st.Close()
						return err
					}
				}
				_, err = reg.PutProgram("w", []byte(v.src))
				name, key := "registry.extend_facts", "facts"
				if durable {
					name, key = "registry.extend_facts_store", "facts_store"
				}
				if err == nil {
					sum[key] += us(tr.call(id, name, "", func() { _, err = reg.ExtendFacts("w", []byte(shallow)) }))
				}
				if st != nil {
					if cerr := st.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					return err
				}
			}
		}
		for _, name := range names {
			S.add(name, sum[name]/nv)
		}
	}
	M["core.open_us"] = S.med("open")
	M["engine.solve_us"] = S.med("solve")
	M["specgraph.build_us"] = S.med("build")
	M["minimize.minimize_us"] = S.med("minimize")
	M["core.snapshot_publish_us"] = S.med("publish")
	M["core.extend_us"] = S.med("extend")
	M["core.extend_recompile_us"] = S.med("recompile")
	M["registry.extend_facts_us"] = S.med("facts")
	M["store.append_self_us"] = S.selfMed("facts_store", "facts")
	return nil
}

// printWaterfall renders the ground-ask waterfall as the markdown table the
// README carries.
func printWaterfall(w io.Writer, rep *traceReport) {
	fmt.Fprintln(w, "| stage | layer | span µs | self µs |")
	fmt.Fprintln(w, "|---|---|---:|---:|")
	for _, r := range rep.Waterfall {
		fmt.Fprintf(w, "| %s | %s | %.2f | %.2f |\n", r.Stage, r.Layer, r.SpanUS, r.SelfUS)
	}
	fmt.Fprintf(w, "\nself times sum to %.1f%% of the routed ask\n", rep.ChainSumOverRoute*100)
	names := make([]string, 0, len(rep.DaemonSpans))
	for name := range rep.DaemonSpans {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "\ndaemon's own spans for \"trace\":true asks over loopback (µs, record only):")
	for _, name := range names {
		s := rep.DaemonSpans[name]
		fmt.Fprintf(w, "  %-16s median %8.1f  q1 %8.1f  q3 %8.1f  n %d\n", name, s.Median, s.Q1, s.Q3, s.N)
	}
}
