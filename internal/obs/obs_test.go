package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestTraceSpansNestAndReport(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "request")
	ctx2, child := StartSpan(ctx1, "parse")
	child.End()
	_, sib := StartSpan(ctx1, "solve")
	sib.End()
	_ = ctx2
	root.End()

	rep := tr.Report()
	if rep.ID != tr.ID() || len(rep.ID) != 32 {
		t.Fatalf("trace id = %q", rep.ID)
	}
	if len(rep.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(rep.Spans))
	}
	byName := map[string]Span{}
	for _, s := range rep.Spans {
		byName[s.Name] = s
	}
	req := byName["request"]
	if req.Parent != 0 {
		t.Errorf("request parent = %d, want 0", req.Parent)
	}
	for _, name := range []string{"parse", "solve"} {
		if byName[name].Parent != req.ID {
			t.Errorf("%s parent = %d, want %d", name, byName[name].Parent, req.ID)
		}
		if byName[name].DurUS < 0 {
			t.Errorf("%s duration = %d, want >= 0", name, byName[name].DurUS)
		}
	}
}

func TestTraceNoopWithoutTrace(t *testing.T) {
	ctx := context.Background()
	ctx2, h := StartSpan(ctx, "anything")
	if h != (SpanHandle{}) {
		t.Fatal("expected the zero handle without a trace")
	}
	if ctx2 != ctx {
		t.Fatal("context should pass through unchanged")
	}
	h.End() // must not panic
	Add(ctx, "n", 1)
	SetMax(ctx, "n", 9)
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on bare context should be nil")
	}
}

func TestTraceCounters(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	Add(ctx, "facts_derived", 3)
	Add(ctx, "facts_derived", 4)
	Add(ctx, "zero", 0) // dropped
	SetMax(ctx, "depth", 5)
	SetMax(ctx, "depth", 2) // lower, ignored
	rep := tr.Report()
	if rep.Counters["facts_derived"] != 7 {
		t.Errorf("facts_derived = %d, want 7", rep.Counters["facts_derived"])
	}
	if rep.Counters["depth"] != 5 {
		t.Errorf("depth = %d, want 5", rep.Counters["depth"])
	}
	if _, ok := rep.Counters["zero"]; ok {
		t.Error("zero-delta counter should not be recorded")
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	for i := 0; i < maxSpans+10; i++ {
		_, h := StartSpan(ctx, "s")
		h.End()
	}
	rep := tr.Report()
	if len(rep.Spans) != maxSpans {
		t.Fatalf("got %d spans, want cap %d", len(rep.Spans), maxSpans)
	}
	if rep.DroppedSpans != 10 {
		t.Fatalf("dropped = %d, want 10", rep.DroppedSpans)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c, h := StartSpan(ctx, "worker")
				Add(c, "ops", 1)
				h.End()
			}
		}()
	}
	wg.Wait()
	rep := tr.Report()
	if rep.Counters["ops"] != 400 {
		t.Fatalf("ops = %d, want 400", rep.Counters["ops"])
	}
	if len(rep.Spans)+rep.DroppedSpans != 400 {
		t.Fatalf("spans %d + dropped %d != 400", len(rep.Spans), rep.DroppedSpans)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests handled.", "endpoint", "ask")
	c.Add(3)
	r.Counter("test_requests_total", "Requests handled.", "endpoint", "answers").Inc()
	g := r.Gauge("test_databases", "Loaded databases.")
	g.Set(2)
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	h := r.Histogram("test_duration_seconds", "Latency.", []float64{0.01, 0.1}, "endpoint", "ask")
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(7)
	r.Source("test_", "gauge", "Store gauge.", func() map[string]int64 {
		return map[string]int64{"wal_bytes": 123}
	})

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		`test_requests_total{endpoint="ask"} 3`,
		`test_requests_total{endpoint="answers"} 1`,
		"# TYPE test_databases gauge",
		"test_databases 2",
		"test_uptime_seconds 1.5",
		"# TYPE test_duration_seconds histogram",
		`test_duration_seconds_bucket{endpoint="ask",le="0.01"} 1`,
		`test_duration_seconds_bucket{endpoint="ask",le="0.1"} 2`,
		`test_duration_seconds_bucket{endpoint="ask",le="+Inf"} 3`,
		`test_duration_seconds_count{endpoint="ask"} 3`,
		"# TYPE test_wal_bytes gauge",
		"test_wal_bytes 123",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

// TestExpositionWellFormed is the golden structural check: every sample is
// preceded by its family's # TYPE line, and no family name appears twice.
func TestExpositionWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.", "k", "1").Inc()
	r.Counter("a_total", "A.", "k", "2").Inc()
	r.Gauge("b", "B.").Set(1)
	r.Histogram("c_seconds", "C.", DurationBuckets).Observe(0.2)
	r.Source("d_", "gauge", "D.", func() map[string]int64 {
		return map[string]int64{"x": 1, "y": 2}
	})
	// A source key colliding with a static family must be skipped.
	r.Source("", "gauge", "Clash.", func() map[string]int64 {
		return map[string]int64{"b": 99}
	})

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(b.String()); err != nil {
		t.Fatalf("exposition malformed: %v\n%s", err, b.String())
	}
	if strings.Contains(b.String(), "b 99") {
		t.Error("colliding source sample leaked into exposition")
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on re-registering x_total as a gauge")
		}
	}()
	r.Gauge("x_total", "X.")
}

func TestSourceInText(t *testing.T) {
	r := NewRegistry()
	r.Counter("j_total", "J.", "endpoint", "ask").Add(4)
	r.Gauge("j_up", "Up.").Set(1)
	r.Source("j_", "gauge", "S.", func() map[string]int64 { return map[string]int64{"wal_bytes": 9} })
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`j_total{endpoint="ask"} 4`, "j_up 1", "j_wal_bytes 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestEngineSink(t *testing.T) {
	old := SetEngineSink(&EngineStats{})
	defer SetEngineSink(old)

	s := EngineSink()
	s.AddFacts(5)
	s.AddRounds(2)
	s.AddEquations(3)
	s.ObserveDepth(4)
	s.ObserveDepth(2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.AddPlanHit()
			}
		}()
	}
	wg.Wait()
	c := s.Counters()
	if c["facts_derived_total"] != 5 || c["fixpoint_rounds_total"] != 2 || c["equations_total"] != 3 {
		t.Fatalf("counters = %v", c)
	}
	if c["plan_cache_hits_total"] != 4000 {
		t.Fatalf("plan hits = %d over the stripes, want 4000", c["plan_cache_hits_total"])
	}
	if s.MaxDepth() != 4 {
		t.Fatalf("max depth = %d, want 4", s.MaxDepth())
	}

	// A nil sink is a no-op, not a crash.
	SetEngineSink(nil)
	ns := EngineSink()
	ns.AddFacts(1)
	ns.AddPlanHit()
	ns.ObserveDepth(10)
	if ns.Counters() != nil || ns.MaxDepth() != 0 {
		t.Fatal("nil sink should report nothing")
	}
}
