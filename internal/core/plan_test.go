package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"funcdb/internal/datagen"
	"funcdb/internal/obs"
)

// TestPlanShapeSharing: spelling variants of one query — different
// whitespace, different variable names — must share a single compiled plan
// through the shape-keyed level of the cache.
func TestPlanShapeSharing(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()
	p1, err := db.Prepare(ctx, `?- Meets(T, tony).`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	p2, err := db.Prepare(ctx, `?-   Meets( U ,  tony ).`)
	if err != nil {
		t.Fatalf("Prepare (respelled): %v", err)
	}
	if p1.Shape() != p2.Shape() {
		t.Errorf("shapes differ: %q vs %q", p1.Shape(), p2.Shape())
	}
	if p1 != p2 {
		t.Errorf("spelling variants compiled to distinct plans")
	}
	// A genuinely different query must not collide.
	p3, err := db.Prepare(ctx, `?- Meets(T, jan).`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if p3.Shape() == p1.Shape() {
		t.Errorf("distinct queries share shape %q", p1.Shape())
	}
	// Nor may an existential variable share with an answer variable: the
	// two ask for different answers (days, or whether there is one).
	p5, err := db.Prepare(ctx, `?- Meets(_T, tony).`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if p5 == p1 || p5.Shape() == p1.Shape() {
		t.Errorf("?- Meets(_T, tony). shares the plan of ?- Meets(T, tony).")
	}
	// Exact-text re-Prepare returns the identical plan.
	p4, err := db.Prepare(ctx, `?- Meets(T, tony).`)
	if err != nil {
		t.Fatalf("Prepare (repeat): %v", err)
	}
	if p4 != p1 {
		t.Errorf("exact-text hit returned a different plan")
	}
}

// TestPlanCacheInvalidatedByExtend: no stale plan or answer survives a
// version bump. A plan compiled before Extend answers as of its snapshot;
// Prepare after Extend compiles against the fresh snapshot and sees the new
// fact.
func TestPlanCacheInvalidatedByExtend(t *testing.T) {
	db, err := Open("Even(0).\nEven(T) -> Even(T+2).\n", Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()
	const q = `?- Even(3).`
	old, err := db.Prepare(ctx, q)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if got, _ := old.Ask(ctx); got {
		t.Fatal("Even(3) before extension")
	}
	if err := db.Extend("Even(3)."); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	// The old plan is pinned to its snapshot: still false.
	if got, _ := old.Ask(ctx); got {
		t.Error("stale plan changed its answer after Extend")
	}
	// A fresh Prepare must not see the old snapshot's cache entry.
	fresh, err := db.Prepare(ctx, q)
	if err != nil {
		t.Fatalf("Prepare after Extend: %v", err)
	}
	if fresh == old {
		t.Fatal("Prepare returned the stale plan after a version bump")
	}
	if got, err := fresh.Ask(ctx); err != nil || !got {
		t.Errorf("fresh plan Even(3) = %v, %v; want true", got, err)
	}
}

// TestGroundAskZeroAlloc is the hot-path allocation gate: after warmup, a
// ground ask — both the prepared-plan form and the
// text form hitting the plan cache, with the cached string and with a
// freshly built copy of it — must allocate nothing.
func TestGroundAskZeroAlloc(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()
	const q = `?- Meets(8, tony).`
	plan, err := db.Prepare(ctx, q)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if steps, _, _ := plan.snap.readSteps(q); len(steps) != 1 || steps[0].kind != stepWalk {
		t.Fatal("ground calendar query did not compile to a walk")
	}
	if got, err := plan.Ask(ctx); err != nil || !got {
		t.Fatalf("warmup plan.Ask = %v, %v; want true", got, err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	if n := testing.AllocsPerRun(200, func() {
		if got, err := plan.Ask(ctx); err != nil || !got {
			t.Fatal("plan.Ask flipped")
		}
	}); n != 0 {
		t.Errorf("plan.Ask allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if got, err := snap.Ask(ctx, q); err != nil || !got {
			t.Fatal("snap.Ask flipped")
		}
	}); n != 0 {
		t.Errorf("snapshot text Ask allocates %.1f per run, want 0", n)
	}
	askCopy(t, "meetings", snap, q, true)

	// Deep texts: a depth-1023 list and a depth-1023 numeral, whose plans
	// walked the table when they were built. These rows check the text-hit
	// path on long texts (keying and comparing the text costs no allocation
	// at any length).
	for _, c := range []struct{ name, src, q string }{
		{"sub", datagen.SubsetsSrc(6), datagen.DeepQuery("sub", 6, 1023, 1)},
		{"temporal", datagen.CalendarSrc(64), datagen.DeepQuery("cal", 64, 1023, 1)},
	} {
		s := deepSnapshot(t, c.src)
		want, err := s.Ask(ctx, c.q)
		if err != nil {
			t.Fatalf("%s: warmup Ask: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if got, err := s.Ask(ctx, c.q); err != nil || got != want {
				t.Fatalf("%s: Ask flipped", c.name)
			}
		}); n != 0 {
			t.Errorf("%s: depth-1023 text Ask allocates %.1f per run, want 0", c.name, n)
		}
		askCopy(t, c.name, s, c.q, want)
	}
}

// askCopy is TestGroundAskZeroAlloc's row for a freshly built copy of a
// cached text: the text hit compares it whole, since it is not the string
// the cache stored, and must find the same plan, answer as the text does,
// and allocate nothing.
func askCopy(t *testing.T, name string, s *Snapshot, q string, want bool) {
	t.Helper()
	ctx := context.Background()
	cp := strings.Clone(q)
	p, err := s.Prepare(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if pc, err := s.Prepare(ctx, cp); err != nil || pc != p {
		t.Fatalf("%s: the copy found another plan (%v)", name, err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if got, err := s.Ask(ctx, cp); err != nil || got != want {
			t.Fatalf("%s: Ask of a copy = %v, %v; want %v", name, got, err, want)
		}
	}); n != 0 {
		t.Errorf("%s: text Ask of a copy allocates %.1f per run, want 0", name, n)
	}
}

// TestEquationalAskIsTraced: an equational ask decides by congruence
// closure, not by the verdict the plan was read with: its trace records the
// congruence stage and, as a maximum, the size of the equation set R whose
// closure decided it. A graph ask records neither.
func TestEquationalAskIsTraced(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	plan, err := db.Prepare(context.Background(), `?- Meets(8, tony).`)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	for _, m := range []Method{MethodGraph, MethodEquational} {
		tr := obs.NewTrace()
		if ok, err := plan.Ask(obs.WithTrace(context.Background(), tr), WithMethod(m)); err != nil || !ok {
			t.Fatalf("method %d: %v, %v; want true", m, ok, err)
		}
		rep := tr.Report()
		spans := 0
		for _, sp := range rep.Spans {
			if sp.Name == "congruence" {
				spans++
			}
		}
		want, wantEq := 0, int64(0)
		if m == MethodEquational {
			want, wantEq = 1, int64(plan.snap.spec.NumEquations())
		}
		if spans != want || rep.Counters["equations"] != wantEq || m == MethodEquational && wantEq == 0 {
			t.Errorf("method %d: %d congruence spans, equations %d; want %d, %d (> 0 by congruence)",
				m, spans, rep.Counters["equations"], want, wantEq)
		}
	}
}

// TestEquationalRereadsItsText: an equational ask reads its plan's text
// again into a pooled sink, the one the last read handed back, as the pool
// gives a goroutine what it put: texts asked in turn, false ones between
// true ones, each get their own answer, by both methods.
func TestEquationalRereadsItsText(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	ctx := context.Background()
	cases := []struct {
		q    string
		want bool
	}{
		{"?- Meets(9, tony).", false},
		{"?- Meets(8, tony).", true},
		{"?- Meets(3, tony), Next(tony, jan).", false},
		{"?- Meets(3, jan), Next(tony, jan).", true},
		{"?- Next(jan, jan).", false},
		{"?- Meets(65, jan).", true},
	}
	for round := 0; round < 4; round++ {
		for _, c := range cases {
			for _, m := range []Method{MethodEquational, MethodGraph} {
				if ok, err := snap.Ask(ctx, c.q, WithMethod(m)); err != nil || ok != c.want {
					t.Fatalf("round %d: %s by method %d = %v, %v; want %v", round, c.q, m, ok, err, c.want)
				}
			}
		}
	}
}

// TestPlanSingleflight: many goroutines Preparing the same novel query at
// once must all receive the same plan value (one compilation, shared).
func TestPlanSingleflight(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()
	const workers = 16
	plans := make([]*Plan, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := db.Prepare(ctx, `?- Meets(9, jan), Meets(8, tony).`)
			if err != nil {
				t.Errorf("Prepare: %v", err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("worker %d got a distinct plan", i)
		}
	}
}

// TestArenaPoolStress hammers the pooled scratch arenas from many
// goroutines — ground asks, open asks, equational asks and enumerations,
// interleaved with Extends that republish snapshots — and checks every
// verdict. Run under -race in CI: a reused arena that leaks state across
// queries or across goroutines trips either the race detector or the
// verdict checks.
func TestArenaPoolStress(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				day := (g*11 + i) % 16
				want := day%2 == 0 // tony meets on even days
				got, err := db.Ask(ctx, fmt.Sprintf(`?- Meets(%d, tony).`, day))
				if err != nil {
					t.Errorf("Ask: %v", err)
					return
				}
				if got != want {
					t.Errorf("Meets(%d, tony) = %v, want %v", day, got, want)
					return
				}
				switch i % 3 {
				case 0:
					eq, err := db.Ask(ctx, fmt.Sprintf(`?- Meets(%d, tony).`, day),
						WithMethod(MethodEquational))
					if err != nil {
						t.Errorf("equational Ask: %v", err)
						return
					}
					if eq != want {
						t.Errorf("equational Meets(%d, tony) = %v, want %v", day, eq, want)
						return
					}
				case 1:
					ans, err := db.Answers(ctx, `?- Meets(T, tony).`)
					if err != nil {
						t.Errorf("Answers: %v", err)
						return
					}
					if ans.IsEmpty() {
						t.Error("empty answer specification")
						return
					}
				}
			}
		}(g)
	}
	// Concurrent republishing: each Extend invalidates the snapshot and its
	// plan cache while readers are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := db.Extend(fmt.Sprintf("Other(o%d).", i)); err != nil {
				t.Errorf("Extend: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// BenchmarkFlatAsk measures the prepared-plan flat-table hot path.
func BenchmarkFlatAsk(b *testing.B) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	plan, err := db.Prepare(ctx, `?- Meets(8, tony).`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := plan.Ask(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Ask(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTextAsk measures the text-keyed cache-hit path (one map lookup
// more than BenchmarkFlatAsk).
func BenchmarkTextAsk(b *testing.B) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const q = `?- Meets(8, tony).`
	if _, err := db.Ask(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Ask(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}
