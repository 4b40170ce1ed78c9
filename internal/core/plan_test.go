package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
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
// ground ask through the flat tables — both the prepared-plan form and the
// text form hitting the plan cache — must allocate nothing.
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
	if !plan.flat {
		t.Fatal("ground calendar query did not compile to the flat path")
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
