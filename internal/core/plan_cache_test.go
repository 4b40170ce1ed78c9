package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"funcdb/internal/datagen"
)

// deepFamilies are the three deep-term families of the benchmark.
var deepFamilies = []struct {
	name, src string
	n         int
}{
	{"cal", datagen.CalendarSrc(64), 64},
	{"sub", datagen.SubsetsSrc(6), 6},
	{"rob", datagen.RobotSrc(8), 8},
}

func deepSnapshot(t testing.TB, src string) *Snapshot {
	t.Helper()
	db, err := Open(src, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s, err := db.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return s
}

// TestPrepareMissLinear is the complexity gate of the plan-miss path, in
// counts rather than wall-clock: doubling the term depth of a novel query
// may not much more than double what Prepare allocates. (The Apply-chain
// builder quadrupled the bytes.)
func TestPrepareMissLinear(t *testing.T) {
	ctx := context.Background()
	for _, f := range deepFamilies {
		s := deepSnapshot(t, f.src)
		// Warm the pooled arenas and the first-use paths.
		if _, err := s.Prepare(ctx, datagen.DeepQuery(f.name, f.n, 8, 99)); err != nil {
			t.Fatal(err)
		}
		measure := func(depth int) (allocs, bytes float64) {
			const n = 8
			texts := make([]string, n)
			for i := range texts {
				texts[i] = datagen.DeepQuery(f.name, f.n, depth, int64(depth+i)) + strings.Repeat(" ", i)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, q := range texts {
				if _, err := s.Prepare(ctx, q); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n
		}
		a1, b1 := measure(1024)
		a2, b2 := measure(2048)
		t.Logf("%s: depth 1024: %.0f allocs, %.0f B; depth 2048: %.0f allocs, %.0f B", f.name, a1, b1, a2, b2)
		if a2 > 2.5*a1 || b2 > 2.5*b1 {
			t.Errorf("%s: Prepare miss is superlinear in term depth: %.0f → %.0f allocs, %.0f → %.0f bytes (limit 2.5×)",
				f.name, a1, a2, b1, b2)
		}
		// An absolute ceiling too: what the heaviest family, rob, allocated
		// per application when it was set (162 B), plus 20 %.
		if perApp := b2 / 2048; perApp > 195 {
			t.Errorf("%s: %.0f bytes allocated per application at depth 2048", f.name, perApp)
		}
	}
}

// retained recomputes what the entries now in the cache were charged.
func (pc *planCache) retained() int {
	n := 0
	for src, e := range pc.texts {
		n += entryOverhead + len(src)
		if e.plan != nil {
			q, _, _ := e.plan.query()
			n += planBytes(e.plan.shape, q)
		}
	}
	return n
}

// TestPlanCacheByteBudget: thousands of depth-1000 plans — each tens of
// kilobytes, so the byte budget binds long before the entry cap — never take
// the cache past its budget, and the accounting matches what is cached.
func TestPlanCacheByteBudget(t *testing.T) {
	inserts := 2500
	if testing.Short() {
		inserts = 600
	}
	ctx := context.Background()
	s := deepSnapshot(t, datagen.RobotSrc(8))
	pc := &s.plans
	flushes, last := 0, 0
	for i := 0; i < inserts; i++ {
		if _, err := s.Prepare(ctx, datagen.DeepQuery("rob", 8, 1000, int64(i))); err != nil {
			t.Fatal(err)
		}
		switch {
		case pc.bytes > planCacheBytes:
			t.Fatalf("after %d inserts the cache retains %d bytes, budget %d", i+1, pc.bytes, planCacheBytes)
		case len(pc.texts) > planCacheCap || len(pc.shapes) > planCacheCap:
			t.Fatalf("after %d inserts the cache holds %d texts, %d shapes, cap %d", i+1, len(pc.texts), len(pc.shapes), planCacheCap)
		case pc.bytes < last:
			flushes++
		}
		last = pc.bytes
	}
	if flushes == 0 {
		t.Errorf("%d depth-1000 plans never overflowed the %d-byte budget", inserts, planCacheBytes)
	}
	if got := pc.retained(); got != pc.bytes {
		t.Errorf("cache accounts %d bytes, its entries were charged %d", pc.bytes, got)
	}
	// The estimate is honest: what the heap really holds for the cache is
	// of the same size.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pc.mu.Lock()
	pc.admit(planCacheBytes) // flushes
	pc.mu.Unlock()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if freed := int64(m0.HeapAlloc) - int64(m1.HeapAlloc); freed > 2*int64(last) {
		t.Errorf("flushing a cache accounted at %d bytes freed %d", last, freed)
	}
}

// TestPlanChargeMatchesHeap: the byte budget is the only bound on the plan
// cache's memory, so what it charges must be what the heap holds. Per deep
// family, 500 ground plans and then 500 open ones (the same terms over a
// variable) are cached into a fresh snapshot, and the live heap must have
// grown by 0.75–1.5× of their summed charges.
func TestPlanChargeMatchesHeap(t *testing.T) {
	ctx := context.Background()
	for _, f := range deepFamilies {
		for _, open := range []bool{false, true} {
			text := func(i int) string {
				q := datagen.DeepQuery(f.name, f.n, 192+i%128, int64(i))
				switch {
				case !open:
				case f.name == "cal":
					q = strings.Replace(q, "Meets(", "Meets(T+", 1)
				default:
					q = strings.Replace(q, "(0,", "(S,", 1)
				}
				return q
			}
			s := deepSnapshot(t, f.src)
			if _, err := s.Prepare(ctx, text(-1)); err != nil { // the pools and first uses
				t.Fatal(err)
			}
			// Two collections empty the pools, so neither reading counts
			// what they happen to hold.
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			charged := s.plans.bytes
			for i := 0; i < 500; i++ {
				if p, err := s.Prepare(ctx, text(i)); err != nil || p.Ground() == open {
					t.Fatalf("%s: %q: ground %v, %v", f.name, text(i), p != nil && p.Ground(), err)
				}
			}
			charged = s.plans.bytes - charged
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m1)
			grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
			ratio := float64(grew) / float64(charged)
			t.Logf("%s, open %v: heap grew %d B, plans charged %d B: %.2f×", f.name, open, grew, charged, ratio)
			if ratio < 0.75 || ratio > 1.5 {
				t.Errorf("%s, open %v: the heap grew %.2f× what the plans were charged", f.name, open, ratio)
			}
			runtime.KeepAlive(s)
		}
	}
}

// TestPlanCacheKeepsHotSet: a working set under both caps is never evicted.
func TestPlanCacheKeepsHotSet(t *testing.T) {
	ctx := context.Background()
	s := deepSnapshot(t, datagen.SubsetsSrc(6))
	texts := make([]string, 64)
	plans := make([]*Plan, len(texts))
	for i := range texts {
		texts[i] = datagen.DeepQuery("sub", 6, 16*i+7, int64(i))
		var err error
		if plans[i], err = s.Prepare(ctx, texts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if s.plans.bytes > planCacheBytes/2 {
		t.Fatalf("the hot set alone retains %d of %d bytes", s.plans.bytes, planCacheBytes)
	}
	for round := 0; round < 50; round++ {
		for i, q := range texts {
			if p, err := s.Prepare(ctx, q); err != nil || p != plans[i] {
				t.Fatalf("round %d: hot plan %d was recompiled (err %v)", round, i, err)
			}
		}
	}
}

// TestPlanCacheSkipsOversized: one query too large for the cache is answered
// without flushing the plans already there.
func TestPlanCacheSkipsOversized(t *testing.T) {
	ctx := context.Background()
	s := deepSnapshot(t, datagen.CalendarSrc(4))
	small, err := s.Prepare(ctx, "?- Meets(5, s1).")
	if err != nil {
		t.Fatal(err)
	}
	huge := "?- " + strings.Repeat("Meets(4, s0), ", planCacheBytes/8/64) + "Meets(5, s1)."
	p, err := s.Prepare(ctx, huge)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := p.Ask(ctx); err != nil || !ok {
		t.Errorf("oversized query = %v, %v; want true", ok, err)
	}
	if len(s.plans.texts) != 1 || s.plans.bytes > 1024 {
		t.Errorf("oversized query was cached: %d texts, %d bytes", len(s.plans.texts), s.plans.bytes)
	}
	if again, _ := s.Prepare(ctx, "?- Meets(5, s1)."); again != small {
		t.Errorf("oversized query evicted the cached plan")
	}
	// An unparsable oversized text is reported, and not cached either.
	if _, err := s.Prepare(ctx, "?- Meets(5, s1)"+strings.Repeat(" ", planCacheBytes/8)); err == nil || len(s.plans.texts) != 1 {
		t.Errorf("oversized bad query: err %v, %d texts cached", err, len(s.plans.texts))
	}
}

// TestPlanSingleflightAcrossSpellings: concurrent misses on one shape — each
// goroutine with a spelling of its own, so none is a text hit — collapse to
// a single compilation. Run under -race.
func TestPlanSingleflightAcrossSpellings(t *testing.T) {
	ctx := context.Background()
	s := deepSnapshot(t, datagen.RobotSrc(8))
	base := datagen.DeepQuery("rob", 8, 512, 1)
	const workers = 16
	plans := make([]*Plan, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := s.Prepare(ctx, fmt.Sprintf("%s%s", strings.Repeat(" ", i), base))
			if err != nil {
				t.Errorf("Prepare: %v", err)
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("spelling %d compiled a plan of its own", i)
		}
	}
	if len(s.plans.shapes) != 1 || len(s.plans.texts) != workers {
		t.Errorf("cache holds %d shapes, %d texts; want 1, %d", len(s.plans.shapes), len(s.plans.texts), workers)
	}
}
