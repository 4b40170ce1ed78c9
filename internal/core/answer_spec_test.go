package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcdb/internal/datagen"
	"funcdb/internal/obs"
	"funcdb/internal/query"
	"funcdb/internal/symbols"
)

// render enumerates ans to depth, stopping after limit tuples (0 = all), in
// enumeration order.
func render(t testing.TB, ans *query.Answers, depth, limit int) []string {
	t.Helper()
	tuples, _, err := ans.Render(context.Background(), depth, limit)
	if err != nil {
		t.Fatalf("Render: %v", err)
	}
	var out []string
	for _, tu := range tuples {
		row := tu.Term
		for _, a := range tu.Args {
			row += "|" + a
		}
		out = append(out, row)
	}
	return out
}

func specBuilds() int64 { return obs.EngineSink().Counters()["answer_spec_builds_total"] }

// TestAnswerSpecKilledBuildIsNotKept: a first build killed by its caller's
// work budget leaves nothing on the plan; the next caller builds again and
// gets what a database that never saw the kill gets.
func TestAnswerSpecKilledBuildIsNotKept(t *testing.T) {
	const q = `?- Member(ext(S, e0), e1).`
	s := deepSnapshot(t, datagen.SubsetsSrc(6))
	p, err := s.Prepare(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	tiny := obs.WithBudget(context.Background(), &obs.Budget{MaxQSteps: 3})
	if _, err := p.Answers(tiny); !errors.Is(err, obs.ErrBudgetExceeded) {
		t.Fatalf("budgeted build: %v, want ErrBudgetExceeded", err)
	}
	if p.spec.Load() != nil {
		t.Fatal("a killed build was kept on the plan")
	}
	ans, err := p.Answers(context.Background())
	if err != nil {
		t.Fatalf("build after the kill: %v", err)
	}
	kept := p.spec.Load()
	if kept == nil {
		t.Fatal("a successful build was not kept")
	}
	fresh, err := deepSnapshot(t, datagen.SubsetsSrc(6)).Answers(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(t, ans, 3, 0), render(t, fresh, 3, 0); !reflect.DeepEqual(got, want) || len(got) == 0 {
		t.Errorf("after a killed build: %d tuples %v\nfresh database: %d tuples %v", len(got), got, len(want), want)
	}
	// The tiny tenant is served from the kept value now: a hit does no work,
	// so there is nothing for its budget to meter.
	before := specBuilds()
	if _, err := p.Answers(tiny); err != nil {
		t.Errorf("budgeted hit: %v", err)
	}
	if p.spec.Load() != kept || specBuilds() != before {
		t.Error("a hit rebuilt the specification")
	}
}

// TestAnswerSpecFollowerOutlivesLeader: the first caller of a cold
// non-uniform plan runs out of time mid-build; a concurrent caller with no
// deadline, which was waiting on that build, does not inherit the failure
// but builds in its turn and gets the full answer. The leader is held inside
// the build (specHook) until the follower waits and the leader's deadline
// has passed, so the order does not hang on the clock.
func TestAnswerSpecFollowerOutlivesLeader(t *testing.T) {
	s := deepSnapshot(t, datagen.SubsetsSrc(10))
	p, err := s.Prepare(context.Background(), `?- Member(ext(S, e0), e1).`)
	if err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	building, waiting := make(chan struct{}), make(chan struct{})
	var leaders, followers atomic.Int32
	specHook = func(leader bool) {
		switch {
		case !leader:
			if followers.Add(1) == 1 {
				close(waiting)
			}
		case leaders.Add(1) == 1:
			close(building)
			<-waiting
			<-short.Done()
		}
	}
	defer func() { specHook = nil }()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := p.Answers(short)
		leaderErr <- err
	}()
	<-building // the leader holds the slot from here on
	ans, err := p.Answers(context.Background())
	if err != nil {
		t.Fatalf("follower: %v", err)
	}
	if err := <-leaderErr; !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader: %v, want ErrCanceled ∧ DeadlineExceeded", err)
	}
	if l, f := leaders.Load(), followers.Load(); l != 2 || f != 1 {
		t.Errorf("%d builds and %d waits, want 2 builds (the leader's, then the follower's) and 1 wait", l, f)
	}
	// Lists with e1 in them, extended or not: one of depth 1, 19 of depth 2.
	if got := render(t, ans, 2, 0); len(got) != 20 {
		t.Errorf("follower got %d tuples to depth 2, want 20: %v", len(got), got)
	}
}

// TestAnswerSpecSharedByConcurrentReaders: eight goroutines on one cold plan,
// each with its own depth and limit, read one specification — built once —
// and see what a lone reader sees. Run under -race.
func TestAnswerSpecSharedByConcurrentReaders(t *testing.T) {
	for _, q := range []string{`?- Member(S, e1).`, `?- Member(ext(S, e0), e1).`} {
		s := deepSnapshot(t, datagen.SubsetsSrc(6))
		p, err := s.Prepare(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		before := specBuilds()
		type result struct {
			rows []string
			spec *specBuild
		}
		results := make([]result, 8)
		var wg sync.WaitGroup
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ans, err := p.Answers(context.Background())
				if err != nil {
					t.Errorf("%s: goroutine %d: %v", q, g, err)
					return
				}
				results[g] = result{render(t, ans, g%4+1, []int{0, 1, 7, 1000}[g/2%4]), p.spec.Load()}
			}(g)
		}
		wg.Wait()
		if n := specBuilds() - before; n != 1 {
			t.Errorf("%s: %d builds for 8 concurrent first callers, want 1", q, n)
		}
		for g, r := range results {
			if r.spec != results[0].spec {
				t.Errorf("%s: goroutine %d read another specification", q, g)
			}
			ans, err := p.Answers(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if want := render(t, ans, g%4+1, []int{0, 1, 7, 1000}[g/2%4]); !reflect.DeepEqual(r.rows, want) || len(want) == 0 {
				t.Errorf("%s: goroutine %d: %v\nalone: %v", q, g, r.rows, want)
			}
		}
	}
}

// TestAnswerSpecDeterministicErrorIsKept: an error that depends on the
// query alone is computed once, like a result.
func TestAnswerSpecDeterministicErrorIsKept(t *testing.T) {
	s := deepSnapshot(t, datagen.SubsetsSrc(3))
	// A free variable no atom binds: parsed queries never have one, so it
	// is injected by hand.
	q, err := s.ParseQuery(`?- Member(ext(S, e0), X).`)
	if err != nil {
		t.Fatal(err)
	}
	q.Free = append(q.Free, s.tab.Clone().Var("Phantom"))
	p := &Plan{snap: s, q: q, tab: s.tab}
	_, err1 := p.Answers(context.Background())
	before := specBuilds()
	_, err2 := p.Answers(context.Background())
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("errors: %v, then %v", err1, err2)
	}
	if specBuilds() != before {
		t.Error("the failed build was repeated")
	}
}

// TestGroundPlanHasNoAnswerSpec: only open queries compute one.
func TestGroundPlanHasNoAnswerSpec(t *testing.T) {
	s := deepSnapshot(t, datagen.SubsetsSrc(3))
	p, err := s.Prepare(context.Background(), `?- Member(ext(0, e0), e0).`)
	if err != nil {
		t.Fatal(err)
	}
	before := specBuilds()
	if ok, err := p.Ask(context.Background()); err != nil || !ok {
		t.Fatalf("Ask = %v, %v", ok, err)
	}
	if p.spec.Load() != nil || specBuilds() != before {
		t.Error("a ground ask computed an answer specification")
	}
}

// TestOversizedAnswerSpecIsServedUnretained: a specification over an eighth
// of the plan cache's byte budget is answered from and dropped, like an
// oversized plan.
func TestOversizedAnswerSpecIsServedUnretained(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&src, "P(c%d). ", i)
	}
	s := deepSnapshot(t, src.String())
	// 64^3 tuples of three constants: 3 MB, over the 2 MB an entry may keep.
	p, err := s.Prepare(context.Background(), `?- P(X), P(Y), P(Z).`)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Answers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ans.Paths(context.Background(), 0, func([]symbols.FuncID, []symbols.ConstID) bool { n++; return true }); err != nil || n != 64*64*64 {
		t.Errorf("%d tuples, %v; want %d", n, err, 64*64*64)
	}
	if p.spec.Load() != nil {
		t.Error("an oversized specification was retained")
	}
}
