package registry

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"funcdb/internal/core"
)

// TestStressConcurrentReadersAndWriter hammers one registry name with
// lock-free snapshot reads (Ask, Answers) while a writer extends
// the database's facts across version bumps — alternating monotone
// extensions (new data constants) with depth-increasing ones that force a
// full recompile. Every read must succeed and monotone truths must never
// flip back to false. Run under -race in CI: this is the proof that
// snapshot publication is safe across versions.
func TestStressConcurrentReadersAndWriter(t *testing.T) {
	r := New(core.Options{})
	if _, err := r.PutProgram("db", []byte(meetingsSrc)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	const rounds = 20
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			var facts string
			if i%2 == 0 {
				// New data constant, no mixed symbols: monotone fast path.
				facts = fmt.Sprintf("Next(guest%d, tony).", i)
			} else {
				// Deeper ground term: forces a recompile.
				facts = fmt.Sprintf("Meets(%d, extra).", i)
			}
			if _, err := r.ExtendFacts("db", []byte(facts)); err != nil {
				t.Errorf("ExtendFacts round %d: %v", i, err)
				return
			}
		}
	}()

	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e, ok := r.Get("db")
				if !ok {
					t.Error("entry vanished")
					return
				}
				// Meets(8, tony) holds in the seed program; extensions are
				// monotone, so it can never become false.
				got, err := e.Ask(ctx, `?- Meets(8, tony).`)
				if err != nil {
					t.Errorf("reader %d: Ask: %v", g, err)
					return
				}
				if !got {
					t.Errorf("reader %d: monotone truth flipped to false at version %d", g, e.Version)
					return
				}
				switch i % 3 {
				case 1:
					tuples, _, err := e.Answers(ctx, `?- Meets(T, X).`, core.WithDepth(4), core.WithLimit(50))
					if err != nil {
						t.Errorf("reader %d: Answers: %v", g, err)
						return
					}
					if len(tuples) == 0 {
						t.Errorf("reader %d: empty answer set at version %d", g, e.Version)
						return
					}
				case 2:
					for _, c := range []struct {
						q    string
						want bool
					}{{`?- Meets(0, tony).`, true}, {`?- Meets(1, tony).`, false}, {`?- Next(tony, jan).`, true}} {
						if got, err := e.Ask(ctx, c.q); err != nil || got != c.want {
							t.Errorf("reader %d: Ask(%s) = %v, %v; want %v", g, c.q, got, err, c.want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
