package funcdb_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"funcdb"
	"funcdb/internal/datagen"
)

// TestConcurrentMembership exercises the documented concurrency contract:
// after compilation, graph-spec membership over pre-interned terms and
// equational membership (internally serialized) may run from many
// goroutines. Run under -race in CI.
func TestConcurrentMembership(t *testing.T) {
	db, err := funcdb.Open(datagen.CalendarSrc(5), funcdb.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spec, err := db.Graph()
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	form := funcdb.BuildCanonical(spec)
	tab := db.Tab()
	meets, _ := tab.LookupPred("Meets", 1, true)
	succ, _ := tab.LookupFunc("succ", 0)
	s0, _ := tab.LookupConst("s0")

	// Intern every queried term up front: universes are not safe for
	// concurrent mutation.
	terms := make([]funcdb.Term, 200)
	for i := range terms {
		terms[i] = db.Universe().Number(i, succ)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, tm := range terms {
				want := i%5 == 0
				got, err := spec.Has(meets, tm, []funcdb.ConstID{s0})
				if err != nil {
					t.Errorf("Has: %v", err)
					return
				}
				if got != want {
					t.Errorf("goroutine %d: Meets(%d, s0) = %v, want %v", g, i, got, want)
					return
				}
				if form.Has(meets, tm, []funcdb.ConstID{s0}) != want {
					t.Errorf("goroutine %d: canonical disagrees at %d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentAskAnswers exercises the stronger contract documented on
// core.Database: Ask, Answers, Explain and Answers.Paths may run from
// many goroutines with no external synchronization, including the very
// first use (which builds the graph specification lazily). Run under -race.
func TestConcurrentAskAnswers(t *testing.T) {
	db, err := funcdb.Open(datagen.CalendarSrc(3), funcdb.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n := (g + i) % 12
				want := n%3 == 0
				got, err := db.Ask(context.Background(), fmt.Sprintf("?- Meets(%d, s0).", n))
				if err != nil {
					t.Errorf("Ask: %v", err)
					return
				}
				if got != want {
					t.Errorf("Meets(%d, s0) = %v, want %v", n, got, want)
					return
				}
				ans, err := db.Answers(context.Background(), "?- Meets(T, s0).")
				if err != nil {
					t.Errorf("Answers: %v", err)
					return
				}
				count := 0
				if err := ans.Paths(context.Background(), 6, func([]funcdb.FuncID, []funcdb.ConstID) bool {
					count++
					return true
				}); err != nil {
					t.Errorf("Paths: %v", err)
					return
				}
				if count == 0 {
					t.Error("Paths yielded nothing")
					return
				}
				if _, err := db.Explain(fmt.Sprintf("?- Meets(%d, s0).", n)); err != nil {
					t.Errorf("Explain: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
