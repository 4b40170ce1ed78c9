package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcdb/internal/query"
	"funcdb/internal/symbols"
)

// collectAnswers enumerates an answer specification into a sorted list of
// rendered tuples, so locked and snapshot evaluations can be compared.
func collectAnswers(t *testing.T, ans *query.Answers, depth int) []string {
	t.Helper()
	out := render(t, ans, depth, 0)
	sort.Strings(out)
	return out
}

// TestPlanMatchesDirectPath answers the same queries through the one-shot
// entry point (db.Ask/db.Answers) and an explicitly prepared plan, across
// ground, open, uniform and non-uniform shapes.
func TestPlanMatchesDirectPath(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()
	asks := []string{
		`?- Meets(0, tony).`,
		`?- Meets(8, tony).`,
		`?- Meets(9, tony).`,
		`?- Meets(9, jan), Meets(8, tony).`,
		`?- Meets(9, jan), Meets(9, tony).`,
		`?- Next(tony, jan).`,
		`?- Next(jan, bob).`, // novel constant: scratch-interned, absent
		`?- Meets(T, tony).`,
	}
	for _, q := range asks {
		direct, err := db.Ask(ctx, q)
		if err != nil {
			t.Fatalf("Ask(%s): %v", q, err)
		}
		plan, err := db.Prepare(ctx, q)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", q, err)
		}
		planned, err := plan.Ask(ctx)
		if err != nil {
			t.Fatalf("plan.Ask(%s): %v", q, err)
		}
		if direct != planned {
			t.Errorf("Ask(%s): direct=%v plan=%v", q, direct, planned)
		}
	}

	answers := []string{
		`?- Meets(T, X).`,    // uniform: incremental on the frozen spec
		`?- Meets(T, tony).`, // non-uniform: recompute on private state
		`?- Next(tony, X).`,  // data-only
	}
	for _, q := range answers {
		la, err := db.Answers(ctx, q)
		if err != nil {
			t.Fatalf("Answers(%s): %v", q, err)
		}
		plan, err := db.Prepare(ctx, q)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", q, err)
		}
		sa, err := plan.Answers(ctx)
		if err != nil {
			t.Fatalf("plan.Answers(%s): %v", q, err)
		}
		lrows, srows := collectAnswers(t, la, 6), collectAnswers(t, sa, 6)
		if fmt.Sprint(lrows) != fmt.Sprint(srows) {
			t.Errorf("Answers(%s):\n direct %v\n plan   %v", q, lrows, srows)
		}
	}
}

// TestSnapshotMixedGroundQuery sends a query whose term mixes function
// symbols (forcing the §2.4 elimination on the snapshot's thawed private
// table) down both paths.
func TestSnapshotMixedGroundQuery(t *testing.T) {
	src := `
Reach(0, home).
Reach(T, X) -> Reach(up(T), X).
Reach(T, X) -> Reach(left(T), X).
`
	db, err := Open(src, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, q := range []string{
		`?- Reach(up(left(0)), home).`,
		`?- Reach(left(up(up(0))), home).`,
	} {
		got, err := db.Ask(context.Background(), q)
		if err != nil {
			t.Fatalf("Ask(%s): %v", q, err)
		}
		if !got {
			t.Errorf("mixed Ask(%s) = false, want true", q)
		}
	}
}

// TestSnapshotCanceledContext checks that an expired context yields
// ErrCanceled without poisoning the snapshot: the same snapshot value must
// keep answering correctly afterwards.
func TestSnapshotCanceledContext(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s, err := db.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Ask(canceled, `?- Meets(8, tony).`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Ask(canceled ctx) = %v, want ErrCanceled", err)
	}
	if !errors.Is(wrapCanceled(canceled.Err()), context.Canceled) {
		t.Fatalf("wrapped error lost its cause")
	}
	if _, err := s.Answers(canceled, `?- Meets(T, X).`); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Answers(canceled ctx) = %v, want ErrCanceled", err)
	}
	// The snapshot is untouched: fresh contexts still answer.
	got, err := s.Ask(context.Background(), `?- Meets(8, tony).`)
	if err != nil || !got {
		t.Fatalf("Ask after cancellation = %v, %v; want true", got, err)
	}
}

// TestSnapshotDeadlineExceeded distinguishes deadline expiry from explicit
// cancellation through the same ErrCanceled umbrella.
func TestSnapshotDeadlineExceeded(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err = db.Ask(ctx, `?- Meets(8, tony).`)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline = %v, want ErrCanceled ∧ DeadlineExceeded", err)
	}
}

// TestSnapshotStaleAfterExtend takes a snapshot, extends the database, and
// checks the old snapshot still answers as of its creation while a fresh
// snapshot sees the new fact.
func TestSnapshotStaleAfterExtend(t *testing.T) {
	db, err := Open("Even(0).\nEven(T) -> Even(T+2).\n", Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()
	old, err := db.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got, _ := old.Ask(ctx, `?- Even(3).`); got {
		t.Fatal("Even(3) before extension")
	}
	if err := db.Extend("Even(3)."); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	// The published snapshot is immutable: still the old answer.
	if got, _ := old.Ask(ctx, `?- Even(3).`); got {
		t.Error("stale snapshot changed its answer after Extend")
	}
	// A fresh snapshot (rebuilt after invalidation) sees the new fact.
	if got, err := db.Ask(ctx, `?- Even(3).`); err != nil || !got {
		t.Errorf("fresh snapshot Even(3) = %v, %v; want true", got, err)
	}
	if got, err := db.Ask(ctx, `?- Even(7).`); err != nil || !got {
		t.Errorf("fresh snapshot Even(7) = %v, %v; want true", got, err)
	}
}

// TestForEach checks the batch pool: every index runs exactly once, into its
// own slot (input order, and one item's failure is its own), and no more
// workers run at once than asked for, or than there are items, or — asked
// for none — than the default.
func TestForEach(t *testing.T) {
	for _, c := range []struct{ n, workers, bound int }{{40, 3, 3}, {4, 8, 4}, {40, 0, 4}, {0, 2, 0}} {
		var running, peak atomic.Int32
		ran := make([]int32, c.n)
		ForEach(c.n, c.workers, func(j int) {
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			atomic.AddInt32(&ran[j], 1)
			runtime.Gosched()
			running.Add(-1)
		})
		for j, k := range ran {
			if k != 1 {
				t.Errorf("ForEach(%d, %d): index %d ran %d times", c.n, c.workers, j, k)
			}
		}
		if int(peak.Load()) > c.bound {
			t.Errorf("ForEach(%d, %d): %d workers at once, want at most %d", c.n, c.workers, peak.Load(), c.bound)
		}
	}
}

// TestMethodEquational checks that with the per-query WithMethod option,
// Ask decides ground queries through congruence closure and agrees with the
// graph method.
func TestMethodEquational(t *testing.T) {
	graphDB, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx := context.Background()
	for _, q := range []string{
		`?- Meets(0, tony).`,
		`?- Meets(7, jan).`,
		`?- Meets(7, tony).`,
		`?- Meets(100, tony).`,
	} {
		g, err := graphDB.Ask(ctx, q)
		if err != nil {
			t.Fatalf("graph Ask(%s): %v", q, err)
		}
		e, err := graphDB.Ask(ctx, q, WithMethod(MethodEquational))
		if err != nil {
			t.Fatalf("equational Ask(%s): %v", q, err)
		}
		if g != e {
			t.Errorf("method disagreement on %s: graph=%v equational=%v", q, g, e)
		}
	}
	// The equational option answers ground queries by congruence closure
	// and folds open ones into the graph evaluation.
	if got, err := graphDB.Ask(ctx, `?- Meets(8, tony).`, WithMethod(MethodEquational)); err != nil || !got {
		t.Errorf("equational ground ask = %v, %v; want true", got, err)
	}
	if got, err := graphDB.Ask(ctx, `?- Meets(T, tony).`, WithMethod(MethodEquational)); err != nil || !got {
		t.Errorf("equational open ask = %v, %v; want true", got, err)
	}
}

// TestSnapshotConcurrentReaders hammers one snapshot from many goroutines,
// mixing ground asks, open asks and enumerations. Run under -race in CI.
func TestSnapshotConcurrentReaders(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	s, err := db.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				day := (g*7 + i) % 20
				want := day%2 == 0 // tony on even days
				got, err := s.Ask(ctx, fmt.Sprintf(`?- Meets(%d, tony).`, day))
				if err != nil {
					t.Errorf("Ask: %v", err)
					return
				}
				if got != want {
					t.Errorf("Meets(%d, tony) = %v, want %v", day, got, want)
					return
				}
				if i%10 == 0 {
					ans, err := s.Answers(ctx, `?- Meets(T, X).`)
					if err != nil {
						t.Errorf("Answers: %v", err)
						return
					}
					n := 0
					ans.Paths(context.Background(), 4, func([]symbols.FuncID, []symbols.ConstID) bool { n++; return true })
					if n == 0 {
						t.Error("empty enumeration")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
