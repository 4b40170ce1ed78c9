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
// counts rather than wall-clock: a novel ground query makes the same few
// allocations at every term depth, and doubling the depth may not much more
// than double the bytes Prepare allocates. (The Apply-chain builder
// quadrupled the bytes.) Each depth is measured on a fresh snapshot, so the
// plan cache's maps grow alike; the snapshot's first miss, at a depth that
// builds the stride table its walks read, fills the one pool on the path
// (the reader's sink), so the counts repeat.
func TestPrepareMissLinear(t *testing.T) {
	ctx := context.Background()
	for _, f := range deepFamilies {
		measure := func(depth int) (allocs, bytes float64) {
			s := deepSnapshot(t, f.src)
			if _, err := s.Prepare(ctx, datagen.DeepQuery(f.name, f.n, 64, 99)); err != nil { // first uses
				t.Fatal(err)
			}
			const n = 8
			texts := make([]string, n)
			for i := range texts {
				texts[i] = datagen.DeepQuery(f.name, f.n, depth+i, int64(depth+i)) // eight shapes
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
		t.Logf("%s: depth 1024: %.1f allocs, %.0f B; depth 2048: %.1f allocs, %.0f B", f.name, a1, b1, a2, b2)
		// A miss allocates the reader's stack of open applications, the
		// shape with its fingerprint, the symbol string, the steps, the plan
		// and its cache entry, the text level's node, and a share of the
		// cache levels' growth: 7.8 per miss in every family when the
		// ceiling was set (the sink was allocated then, the text level a
		// plain map), plus 20 %.
		if a1 > 9.4 || a2 > 9.4 {
			t.Errorf("%s: %.1f allocations per miss at depth 1024, %.1f at 2048; want at most 9.4 at any depth", f.name, a1, a2)
		}
		if b2 > 2.5*b1 {
			t.Errorf("%s: Prepare miss is superlinear in term depth: %.0f → %.0f bytes (limit 2.5×)", f.name, b1, b2)
		}
		// An absolute ceiling too: what the heaviest family, rob, allocated
		// per application when it was set (28 B: its shape, 12 bytes an
		// application, its symbol string, 4, and the reader's stack of open
		// applications, 8), plus 20 %.
		if perApp := b2 / 2048; perApp > 34 {
			t.Errorf("%s: %.0f bytes allocated per application at depth 2048", f.name, perApp)
		}
	}
}

// TestGroundMissAllocs is the allocation gate of a ground plan miss: the
// plan, its shape (the fingerprint cut from the same buffer), its cache
// entry and the text level's node, and for a term with applications in
// parentheses the reader's stack of open applications — no step, no run
// string (the sink's scratch, which its pool keeps) and no slot of the
// shapes map, which serves open plans alone. Per family, 500 misses at
// depths 64 to 1000, the text level's growth shared among them: at most 4
// allocations a miss on cal, 5 on sub and rob; and the shapes map is empty
// after them.
func TestGroundMissAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops pooled sinks")
	}
	ctx := context.Background()
	limit := map[string]float64{"cal": 4, "sub": 5, "rob": 5}
	for _, f := range deepFamilies {
		s := deepSnapshot(t, f.src)
		const n = 500
		seen := make(map[string]bool)
		var texts []string
		for seed := int64(0); len(texts) <= n; seed++ {
			if q := datagen.DeepQuery(f.name, f.n, 64+int(seed)%937, seed); !seen[q] {
				seen[q] = true
				texts = append(texts, q)
			}
		}
		i := 0
		got := testing.AllocsPerRun(n, func() {
			if p, err := s.Prepare(ctx, texts[i]); err != nil || !p.Ground() {
				t.Fatalf("%s: %.40q: %v", f.name, texts[i], err)
			}
			i++
		})
		if s.plans.ntexts != n+1 {
			t.Fatalf("%s: %d texts cached of %d misses", f.name, s.plans.ntexts, n+1)
		}
		if got > limit[f.name] {
			t.Errorf("%s: a ground miss allocates %.0f times, want at most %.0f", f.name, got, limit[f.name])
		}
		if len(s.plans.shapes) != 0 {
			t.Errorf("%s: %d ground plans in the shapes map", f.name, len(s.plans.shapes))
		}
	}
}

// eachText calls f on every text of the text level and its entry, as a
// reader sees them.
func (pc *planCache) eachText(f func(src string, e *planEntry)) {
	if t := pc.texts.Load(); t != nil {
		for i := range t.slots {
			for n := t.slots[i].Load(); n != nil; n = n.next {
				f(n.src, n.e)
			}
		}
	}
}

// retained recomputes what the entries now in the cache were charged.
func (pc *planCache) retained() int {
	n := 0
	pc.eachText(func(src string, e *planEntry) {
		n += entryOverhead + len(src)
		switch {
		case e.plan == nil:
		case e.plan.ground:
			n += e.plan.groundBytes()
		default:
			n += planBytes(e.plan.shape, e.plan.q)
		}
	})
	return n
}

// numTexts counts the texts of the text level, as a reader sees them.
func (pc *planCache) numTexts() int {
	n := 0
	pc.eachText(func(string, *planEntry) { n++ })
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
		case pc.numTexts() > planCacheCap || len(pc.shapes) > planCacheCap:
			t.Fatalf("after %d inserts the cache holds %d texts, %d shapes, cap %d", i+1, pc.numTexts(), len(pc.shapes), planCacheCap)
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
	if got := pc.numTexts(); got != pc.ntexts {
		t.Errorf("cache counts %d texts, its text level holds %d", pc.ntexts, got)
	}
	// The estimate is honest: what the heap really holds for the cache is
	// of the same size.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pc.mu.Lock()
	pc.flush()
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
	huge := "?- " + strings.Repeat("Meets(4, s0), ", planCacheBytes/8/16) + "Meets(5, s1)."
	p, err := s.Prepare(ctx, huge)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := p.Ask(ctx); err != nil || !ok {
		t.Errorf("oversized query = %v, %v; want true", ok, err)
	}
	if s.plans.numTexts() != 1 || s.plans.bytes > 1024 {
		t.Errorf("oversized query was cached: %d texts, %d bytes", s.plans.numTexts(), s.plans.bytes)
	}
	if again, _ := s.Prepare(ctx, "?- Meets(5, s1)."); again != small {
		t.Errorf("oversized query evicted the cached plan")
	}
	// An unparsable oversized text is reported, and not cached either.
	if _, err := s.Prepare(ctx, "?- Meets(5, s1)"+strings.Repeat(" ", planCacheBytes/8)); err == nil || s.plans.numTexts() != 1 {
		t.Errorf("oversized bad query: err %v, %d texts cached", err, s.plans.numTexts())
	}
}

// TestPlanSingleflightAcrossSpellings: concurrent misses on one open shape
// — each goroutine with a spelling of its own, so none is a text hit —
// collapse to a single compilation. (A ground text has no compile to
// collapse: reading it is its plan.) Run under -race.
func TestPlanSingleflightAcrossSpellings(t *testing.T) {
	ctx := context.Background()
	s := deepSnapshot(t, datagen.RobotSrc(8))
	base := strings.Replace(datagen.DeepQuery("rob", 8, 512, 1), "(0,", "(S,", 1)
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
	if len(s.plans.shapes) != 1 || s.plans.numTexts() != workers {
		t.Errorf("cache holds %d shapes, %d texts; want 1, %d", len(s.plans.shapes), s.plans.numTexts(), workers)
	}
}

// TestPlanCacheFlushUnderReaders: the text hit takes no lock, so a flush can
// swap the text table under readers. Readers cycle a fixed pool of ground
// texts while writers push more than planCacheCap novel texts through the
// same snapshot, which forces flushes; every plan a reader gets must be of
// this snapshot, of the text's shape, and carry the verdict the equational
// method gives. Run under -race.
func TestPlanCacheFlushUnderReaders(t *testing.T) {
	ctx := context.Background()
	s := deepSnapshot(t, datagen.CalendarSrc(4))
	type want struct {
		shape string
		ok    bool
	}
	pool := make([]string, 32)
	wants := make(map[string]want, len(pool))
	for i := range pool {
		pool[i] = fmt.Sprintf("?- Meets(%d, s%d).", i, (i+i%2)%4) // true for even i
		ok, err := s.Ask(ctx, pool[i], WithMethod(MethodEquational))
		if err != nil || ok != (i%2 == 0) {
			t.Fatalf("%s: equational %v, %v; want %v", pool[i], ok, err, i%2 == 0)
		}
		p, err := s.Prepare(ctx, pool[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[pool[i]] = want{p.Shape(), ok}
	}

	const writers, perWriter = 2, planCacheCap/2 + 500
	var done sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		done.Add(1)
		go func(r int) {
			defer done.Done()
			for n := r; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				text := pool[n%len(pool)]
				p, err := s.Prepare(ctx, text)
				if err != nil {
					t.Errorf("%s: %v", text, err)
					return
				}
				ok, err := p.Ask(ctx)
				if w := wants[text]; p.snap != s || p.Shape() != w.shape || err != nil || ok != w.ok {
					t.Errorf("%s: a plan of shape %q (this snapshot's: %v) answers %v, %v; want %v", text, p.Shape(), p.snap == s, ok, err, w.ok)
					return
				}
			}
		}(r)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * perWriter; i < (w+1)*perWriter; i++ {
				// Novel texts: one of 97 numerals and five constants (s4 is
				// not the program's), then 1 + i/97 spaces.
				text := fmt.Sprintf("?- Meets(%d, s%d). %s", i%97, i%5, strings.Repeat(" ", i/97))
				if _, err := s.Prepare(ctx, text); err != nil {
					t.Errorf("%q: %v", text, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	done.Wait()
	pc := &s.plans
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.ntexts >= writers*perWriter {
		t.Errorf("%d novel texts never flushed the cache: it holds %d", writers*perWriter, pc.ntexts)
	}
}
