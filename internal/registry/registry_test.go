package registry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/wire"
)

const evenSrc = `
Even(0).
Even(T) -> Even(T+2).
`

const meetingsSrc = `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`

func exportDoc(t *testing.T, src string) []byte {
	t.Helper()
	db, err := core.Open(src, core.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var buf bytes.Buffer
	if err := db.Export(&buf); err != nil {
		t.Fatalf("Export: %v", err)
	}
	return buf.Bytes()
}

func TestPutProgramAndAsk(t *testing.T) {
	r := New(core.Options{})
	e, err := r.PutProgram("even", []byte(evenSrc))
	if err != nil {
		t.Fatalf("PutProgram: %v", err)
	}
	if e.Version != 1 || e.Kind != KindProgram {
		t.Fatalf("entry = %+v", e)
	}
	for q, want := range map[string]bool{
		"?- Even(4).": true,
		"?- Even(5).": false,
	} {
		got, err := e.Ask(context.Background(), q)
		if err != nil {
			t.Fatalf("Ask(%s): %v", q, err)
		}
		if got != want {
			t.Errorf("Ask(%s) = %v, want %v", q, got, want)
		}
		// The congruence-closure path must agree.
		gotCC, err := e.Ask(context.Background(), q, core.WithMethod(core.MethodEquational))
		if err != nil {
			t.Fatalf("Ask cc(%s): %v", q, err)
		}
		if gotCC != want {
			t.Errorf("Ask cc(%s) = %v, want %v", q, gotCC, want)
		}
	}
}

func TestPutSpecAndAsk(t *testing.T) {
	r := New(core.Options{})
	e, err := r.PutSpec("even", exportDoc(t, evenSrc))
	if err != nil {
		t.Fatalf("PutSpec: %v", err)
	}
	if e.Kind != KindSpec {
		t.Fatalf("kind = %v", e.Kind)
	}
	got, err := e.Ask(context.Background(), "?- Even(4).")
	if err != nil || !got {
		t.Fatalf("Ask(Even(4)) = %v, %v", got, err)
	}
	got, err = e.Ask(context.Background(), "?- Even(5).", core.WithMethod(core.MethodEquational))
	if err != nil || got {
		t.Fatalf("Ask cc(Even(5)) = %v, %v", got, err)
	}
	// A uniform open query is answered from the document (Theorem 5.1), any
	// other needs the rules; explain needs them too.
	tuples, _, err := e.Answers(context.Background(), "?- Even(T).", core.WithDepth(4), core.WithLimit(0))
	if err != nil || len(tuples) != 3 || tuples[2].Term != "4" {
		t.Errorf("Answers on a spec entry = %v, %v; want 0, 2 and 4", tuples, err)
	}
	if _, _, err := e.Answers(context.Background(), "?- Even(T+1).", core.WithDepth(4)); !errors.Is(err, core.ErrNeedsRules) {
		t.Errorf("non-uniform Answers on a spec entry: %v, want core.ErrNeedsRules", err)
	}
	if _, err := e.Explain(context.Background(), "?- Even(4)."); err == nil {
		t.Error("Explain on a spec entry succeeded")
	}
}

func TestPutSniffsKind(t *testing.T) {
	r := New(core.Options{})
	if e, err := r.Put(context.Background(), "a", []byte(evenSrc)); err != nil || e.Kind != KindProgram {
		t.Fatalf("Put program: %v, %v", e, err)
	}
	if e, err := r.Put(context.Background(), "b", exportDoc(t, evenSrc)); err != nil || e.Kind != KindSpec {
		t.Fatalf("Put spec: %v, %v", e, err)
	}
}

func TestVersioningAcrossReloadAndRemove(t *testing.T) {
	r := New(core.Options{})
	e1, err := r.PutProgram("db", []byte(evenSrc))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.PutProgram("db", []byte(meetingsSrc))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Version != 1 || e2.Version != 2 {
		t.Fatalf("versions = %d, %d", e1.Version, e2.Version)
	}
	// The old entry still answers after the swap (copy-on-write).
	if got, err := e1.Ask(context.Background(), "?- Even(4)."); err != nil || !got {
		t.Fatalf("old entry broken after reload: %v, %v", got, err)
	}
	if removed, err := r.Remove("db"); err != nil || !removed {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	if removed, err := r.Remove("db"); err != nil || removed {
		t.Fatalf("second Remove = %v, %v", removed, err)
	}
	e3, err := r.PutProgram("db", []byte(evenSrc))
	if err != nil {
		t.Fatal(err)
	}
	if e3.Version != 3 {
		t.Fatalf("version after re-add = %d, want 3", e3.Version)
	}
}

func TestBadInputs(t *testing.T) {
	r := New(core.Options{})
	if _, err := r.PutProgram("bad name!", []byte(evenSrc)); err == nil {
		t.Error("invalid name accepted")
	}
	if _, err := r.PutProgram("x", []byte("Even(")); err == nil {
		t.Error("unparsable program accepted")
	}
	if _, err := r.PutSpec("x", []byte(`{"format":"nope"}`)); err == nil {
		t.Error("bad spec document accepted")
	}
	if _, ok := r.Get("x"); ok {
		t.Error("failed Put left an entry behind")
	}
}

func TestLoadDirAndList(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "even.fdb"), []byte(evenSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "evenspec.json"), exportDoc(t, evenSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(core.Options{})
	n, err := r.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if n != 2 || r.Len() != 2 {
		t.Fatalf("loaded %d entries, registry has %d", n, r.Len())
	}
	list := r.List()
	if len(list) != 2 || list[0].Name != "even" || list[1].Name != "evenspec" {
		t.Fatalf("List = %v", list)
	}
}

func TestAnswersEnumeration(t *testing.T) {
	r := New(core.Options{})
	e, err := r.PutProgram("meet", []byte(meetingsSrc))
	if err != nil {
		t.Fatal(err)
	}
	tuples, truncated, err := e.Answers(context.Background(), "?- Meets(T, X).", core.WithDepth(4), core.WithLimit(0))
	if err != nil {
		t.Fatalf("Answers: %v", err)
	}
	if truncated || len(tuples) != 5 {
		t.Fatalf("tuples = %v (truncated %v), want 5 days", tuples, truncated)
	}
	if tuples[0].Term != "0" || tuples[0].Args[0] != "tony" {
		t.Fatalf("first tuple = %+v", tuples[0])
	}
	short, truncated, err := e.Answers(context.Background(), "?- Meets(T, X).", core.WithDepth(4), core.WithLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	if !truncated || len(short) != 2 {
		t.Fatalf("limited tuples = %v (truncated %v)", short, truncated)
	}
	ex, err := e.Explain(context.Background(), "?- Meets(2, tony).")
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if !strings.Contains(ex, "true") {
		t.Fatalf("explanation = %q", ex)
	}
}

// TestConcurrentGetPut hammers the copy-on-write snapshot: readers resolve
// and query entries — a program and a spec document, whose one snapshot the
// readers of an entry share, its plan cache filling under them — while
// writers hot-reload the same names. Run under -race.
func TestConcurrentGetPut(t *testing.T) {
	r := New(core.Options{})
	if _, err := r.PutProgram("db", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	doc := exportDoc(t, evenSrc)
	if _, err := r.PutSpec("spec", doc); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				for _, name := range []string{"db", "spec"} {
					e, ok := r.Get(name)
					if !ok {
						t.Error("entry vanished")
						return
					}
					q := fmt.Sprintf("?- Even(%d).", i)
					if yes, err := e.Ask(context.Background(), q, core.WithMethod(core.Method(i/2%2))); err != nil || yes != (i%2 == 0) {
						t.Errorf("%s: Ask(%s) = %v, %v", name, q, yes, err)
						return
					}
					if tuples, _, err := e.Answers(context.Background(), "?- Even(T).", core.WithDepth(i%5)); err != nil || len(tuples) != i%5/2+1 {
						t.Errorf("%s: Answers to depth %d = %v, %v", name, i%5, tuples, err)
						return
					}
				}
				r.List()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := r.PutProgram("db", []byte(evenSrc)); err != nil {
					t.Errorf("PutProgram: %v", err)
					return
				}
				if _, err := r.PutSpec("spec", doc); err != nil {
					t.Errorf("PutSpec: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, name := range []string{"db", "spec"} {
		if e, _ := r.Get(name); e.Version != 21 {
			t.Fatalf("%s: final version = %d, want 21", name, e.Version)
		}
	}
}

// TestDeleteThenReputVersionsIncrease pins the cache-safety invariant: a
// name deleted and re-created never reuses a version, even across several
// delete/re-put rounds and an intervening ExtendFacts, so a response cache
// keyed on (name, version) can never serve a stale entry for a recreated
// name.
func TestDeleteThenReputVersionsIncrease(t *testing.T) {
	r := New(core.Options{})
	last := uint64(0)
	bump := func(e *Entry, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if e.Version <= last {
			t.Fatalf("version %d did not increase past %d", e.Version, last)
		}
		last = e.Version
	}
	for round := 0; round < 3; round++ {
		bump(r.PutProgram("db", []byte(evenSrc)))
		bump(r.ExtendFacts("db", []byte("Even(100).")))
		bump(r.PutProgram("db", []byte(meetingsSrc)))
		if removed, err := r.Remove("db"); err != nil || !removed {
			t.Fatalf("round %d: Remove = %v, %v", round, removed, err)
		}
	}
	if last != 9 {
		t.Fatalf("final version = %d, want 9", last)
	}
}

// TestExtendFactsNewVersionAndVisibility: ExtendFacts bumps the version
// and the new facts answer through both the new and the old entry (the
// compiled database is shared; the extension is monotone).
func TestExtendFactsNewVersionAndVisibility(t *testing.T) {
	r := New(core.Options{})
	e1, err := r.PutProgram("db", []byte(evenSrc))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := e1.Ask(context.Background(), "?- Odd(1)."); err == nil && got {
		t.Fatal("Odd(1) true before extend")
	}
	e2, err := r.ExtendFacts("db", []byte("Odd(1). Odd(T) -> Odd(T+2)."))
	if err == nil {
		t.Fatal("rules accepted through ExtendFacts")
	}
	e2, err = r.ExtendFacts("db", []byte("Even(1)."))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version != e1.Version+1 {
		t.Fatalf("version = %d, want %d", e2.Version, e1.Version+1)
	}
	for _, e := range []*Entry{e1, e2} {
		if got, err := e.Ask(context.Background(), "?- Even(3)."); err != nil || !got {
			t.Fatalf("Even(3) after extend via v%d = %v, %v", e.Version, got, err)
		}
	}
	if _, err := r.ExtendFacts("nosuch", []byte("Even(1).")); err == nil {
		t.Fatal("ExtendFacts on missing name succeeded")
	}
}

// TestObserverOrderAndAbort: the observer sees every mutation in commit
// order with the version it produces, and an observer error aborts the
// mutation (no new version, no visible change).
func TestObserverOrderAndAbort(t *testing.T) {
	r := New(core.Options{})
	var seen []wire.Mutation
	fail := false
	r.SetObserver(func(m wire.Mutation) error {
		if fail {
			return os.ErrPermission
		}
		seen = append(seen, m)
		return nil
	})
	if _, err := r.PutProgram("db", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExtendFacts("db", []byte("Even(1).")); err != nil {
		t.Fatal(err)
	}
	if removed, err := r.Remove("db"); err != nil || !removed {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	want := []struct {
		op wire.Op
		v  uint64
	}{{wire.OpPut, 1}, {wire.OpExtend, 2}, {wire.OpDelete, 0}}
	if len(seen) != len(want) {
		t.Fatalf("observer saw %d mutations, want %d", len(seen), len(want))
	}
	for i, w := range want {
		if seen[i].Op != w.op || seen[i].Version != w.v || seen[i].Name != "db" {
			t.Fatalf("mutation %d = %+v, want op %v version %d", i, seen[i], w.op, w.v)
		}
	}

	fail = true
	if _, err := r.PutProgram("db2", []byte(evenSrc)); err == nil {
		t.Fatal("put committed despite observer error")
	}
	if _, ok := r.Get("db2"); ok {
		t.Fatal("aborted put is visible")
	}
	fail = false
	e, err := r.PutProgram("db2", []byte(evenSrc))
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 1 {
		t.Fatalf("aborted put consumed a version: got %d, want 1", e.Version)
	}
}

// TestReplayReproducesCatalog: applying the observed mutation stream into
// a fresh registry reproduces names, versions and answers — the contract
// the write-ahead log depends on.
func TestReplayReproducesCatalog(t *testing.T) {
	r := New(core.Options{})
	var journal []wire.Mutation
	r.SetObserver(func(m wire.Mutation) error {
		journal = append(journal, wire.Mutation{Op: m.Op, Name: m.Name, Version: m.Version, Payload: bytes.Clone(m.Payload)})
		return nil
	})
	mustPut := func(name, src string) {
		t.Helper()
		if _, err := r.Put(context.Background(), name, []byte(src)); err != nil {
			t.Fatal(err)
		}
	}
	mustPut("even", evenSrc)
	mustPut("meet", meetingsSrc)
	if _, err := r.ExtendFacts("even", []byte("Even(1).")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put(context.Background(), "spec", exportDoc(t, evenSrc)); err != nil {
		t.Fatal(err)
	}
	if removed, err := r.Remove("meet"); err != nil || !removed {
		t.Fatalf("Remove = %v, %v", removed, err)
	}
	mustPut("meet", meetingsSrc)

	r2 := New(core.Options{})
	for _, m := range journal {
		if err := r2.ApplyAt(m); err != nil {
			t.Fatalf("replay %v %q: %v", m.Op, m.Name, err)
		}
	}
	if r2.Len() != r.Len() {
		t.Fatalf("replayed %d entries, want %d", r2.Len(), r.Len())
	}
	for _, e := range r.List() {
		e2, ok := r2.Get(e.Name)
		if !ok {
			t.Fatalf("replay lost %q", e.Name)
		}
		if e2.Version != e.Version || e2.Kind != e.Kind {
			t.Fatalf("%q: replayed (v%d, %s), want (v%d, %s)", e.Name, e2.Version, e2.Kind, e.Version, e.Kind)
		}
	}
	for _, q := range []string{"?- Even(2).", "?- Even(3).", "?- Even(5)."} {
		want, err := mustGet(t, r, "even").Ask(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mustGet(t, r2, "even").Ask(context.Background(), q)
		if err != nil || got != want {
			t.Fatalf("%s: replayed %v, want %v (err %v)", q, got, want, err)
		}
	}
}

// TestRefusedFactsAreNotServed: facts refused at the commit point — their
// journal write refused, or their deadline passed before it — are never
// answered: not while the observer runs, not after the refusal, not once a
// later fact is accepted, and the program's source text never holds them.
// Readers keep the snapshot they had throughout. Each fact takes a different
// branch of Extend: the monotone path, a fact deeper than the program, and a
// new predicate (a recompile).
func TestRefusedFactsAreNotServed(t *testing.T) {
	ctx := context.Background()
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	for _, refusal := range []struct {
		how     string
		ctx     context.Context
		journal error // the observer's answer
		want    error
	}{
		{"the journal refuses", ctx, os.ErrPermission, os.ErrPermission},
		{"the deadline has passed", expired, nil, context.DeadlineExceeded},
	} {
		for _, fact := range []string{"Even(1).", "Even(9).", "Odd(1)."} {
			q := "?- " + strings.TrimSuffix(fact, ".") + "."
			r := New(core.Options{})
			e1, err := r.PutProgram("db", []byte(evenSrc))
			if err != nil {
				t.Fatal(err)
			}
			s0, err := e1.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			// oldReader reads through the entry it holds, the way an in-flight
			// request does, and requires the snapshot it had and the old answer.
			oldReader := func(when string) {
				done := make(chan error, 1)
				go func() {
					s, err := e1.Snapshot(ctx)
					if err == nil && s != s0 {
						err = errors.New("a reader got a new snapshot")
					}
					if err == nil {
						var got bool
						if got, err = s.Ask(ctx, q); err == nil && got {
							err = fmt.Errorf("%s answered true", q)
						}
					}
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("%s, %s: %v", fact, when, err)
					}
				case <-time.After(5 * time.Second):
					t.Errorf("%s, %s: a reader blocked", fact, when)
				}
			}
			journaled := false
			r.SetObserver(func(m wire.Mutation) error {
				journaled = true
				oldReader("while the journal write is pending")
				return refusal.journal
			})
			if _, err := r.ExtendFactsContext(refusal.ctx, "db", []byte(fact)); !errors.Is(err, refusal.want) {
				t.Fatalf("%s, %s: ExtendFacts = %v, want %v", refusal.how, fact, err, refusal.want)
			}
			if journaled && refusal.journal == nil {
				t.Errorf("%s, %s: journaled past the commit point", refusal.how, fact)
			}
			oldReader("after the refusal")
			e := mustGet(t, r, "db")
			if got, err := e.Ask(ctx, q); err != nil || got || e.Version != 1 {
				t.Errorf("%s, %s: after the refusal %s = %v, %v at version %d; want false at version 1", refusal.how, fact, q, got, err, e.Version)
			}
			if src := e.Database().SourceText(); strings.Contains(src, fact) {
				t.Errorf("%s, %s: the source text holds the refused fact:\n%s", refusal.how, fact, src)
			}
			if got, err := e.Ask(ctx, "?- Even(4)."); err != nil || !got {
				t.Errorf("%s: after the refusal Even(4) = %v, %v", fact, got, err)
			}

			r.SetObserver(nil)
			e2, err := r.ExtendFacts("db", []byte("Even(2)."))
			if err != nil {
				t.Fatal(err)
			}
			for q, want := range map[string]bool{q: false, "?- Even(2).": true, "?- Even(3).": false} {
				if got, err := e2.Ask(ctx, q); err != nil || got != want || e2.Version != 2 {
					t.Errorf("%s, %s: after an accepted fact %s = %v, %v at version %d; want %v at version 2", refusal.how, fact, q, got, err, e2.Version, want)
				}
			}
			if src := e2.Database().SourceText(); strings.Contains(src, fact) || !strings.Contains(src, "Even(2).") {
				t.Errorf("%s, %s: after an accepted fact the source text is\n%s", refusal.how, fact, src)
			}
		}
	}
}

// TestReplayAfterRefusedFact: replaying the journal of "a refused fact,
// then an accepted one" into a fresh registry reproduces the live one — the
// refused fact has no record and no answer on either side.
func TestReplayAfterRefusedFact(t *testing.T) {
	r := New(core.Options{})
	var journal []wire.Mutation
	refuse := false
	r.SetObserver(func(m wire.Mutation) error {
		if refuse {
			return os.ErrPermission
		}
		journal = append(journal, wire.Mutation{Op: m.Op, Name: m.Name, Version: m.Version, Payload: bytes.Clone(m.Payload)})
		return nil
	})
	if _, err := r.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	refuse = true
	if _, err := r.ExtendFacts("even", []byte("Even(1).")); err == nil {
		t.Fatal("refused facts were acknowledged")
	}
	refuse = false
	if _, err := r.ExtendFacts("even", []byte("Even(7).")); err != nil {
		t.Fatal(err)
	}

	r2 := New(core.Options{})
	for _, m := range journal {
		if err := r2.ApplyAt(m); err != nil {
			t.Fatalf("replay %v %q: %v", m.Op, m.Name, err)
		}
	}
	live, replayed := mustGet(t, r, "even"), mustGet(t, r2, "even")
	if live.Version != 2 || replayed.Version != live.Version || replayed.SourceBytes != live.SourceBytes {
		t.Fatalf("replayed (v%d, %d bytes), live (v%d, %d bytes); want v2 on both",
			replayed.Version, replayed.SourceBytes, live.Version, live.SourceBytes)
	}
	for _, q := range []string{"?- Even(1).", "?- Even(3).", "?- Even(7).", "?- Even(9).", "?- Even(4)."} {
		want, err := live.Ask(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := replayed.Ask(context.Background(), q)
		if err != nil || got != want {
			t.Errorf("%s: replayed %v, live %v (err %v)", q, got, want, err)
		}
		if q == "?- Even(1)." && want {
			t.Error("the refused fact Even(1) is served")
		}
	}
}

func mustGet(t *testing.T, r *Registry, name string) *Entry {
	t.Helper()
	e, ok := r.Get(name)
	if !ok {
		t.Fatalf("missing entry %q", name)
	}
	return e
}
