package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"funcdb/internal/obs"
)

// expiring is a context whose deadline passes on its n-th look: the engine
// looks at the start of every fixpoint round and every 256 cell evaluations,
// so with n = 2 the build dies inside its first Solve, once it has started.
type expiring struct {
	context.Context
	looks, n int
}

func (c *expiring) Err() error {
	if c.looks++; c.looks >= c.n {
		return context.DeadlineExceeded
	}
	return nil
}

// snapshotFunc builds a database's snapshot under ctx; a test plants a bug
// by standing in front of Database.SnapshotContext.
type snapshotFunc func(db *Database, ctx context.Context) (*Snapshot, error)

// canceledCompileViolations kills the snapshot build of a fresh Open of each
// program three ways, one after the other on the same database — a context
// canceled before the build, a deadline that passes during Solve, and an
// Algorithm Q step budget that runs out — and reports every broken law: the
// build must fail with its context's error or the budget's; nothing may be
// published, no graph and no snapshot; the live engine must hold no context
// afterwards; and the snapshot that short builds then finish between them,
// every one resuming where the last was killed, must answer every generated
// ground query as a fresh Open's does.
func canceledCompileViolations(progs []*oracleProgram, cases int, build snapshotFunc) []string {
	var out []string
	for pi, op := range progs {
		db, err := Open(op.src, Options{})
		if err != nil {
			return append(out, fmt.Sprintf("%s: %v", op.name, err))
		}
		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		for _, kill := range []struct {
			how  string
			ctx  context.Context
			want error
		}{
			{"canceled before the build", canceled, context.Canceled},
			{"deadline during Solve", &expiring{Context: context.Background(), n: 2}, context.DeadlineExceeded},
			{"Algorithm Q out of steps", obs.WithBudget(context.Background(), &obs.Budget{MaxQSteps: 1}), obs.ErrBudgetExceeded},
		} {
			fail := func(format string, args ...any) {
				out = append(out, fmt.Sprintf("%s, %s: %s", op.name, kill.how, fmt.Sprintf(format, args...)))
			}
			if s, err := build(db, kill.ctx); s != nil || !errors.Is(err, kill.want) {
				fail("build = %v, %v; want no snapshot and an error matching %v", s, err, kill.want)
			}
			if db.snap.Load() != nil || db.graph != nil {
				fail("a killed build published (snapshot %v, graph %v)", db.snap.Load() != nil, db.graph != nil)
			}
			if ctx := db.Engine.Context(); ctx != nil {
				fail("the engine still holds the killed build's context")
			}
		}
		// Finish the build in runs of three Algorithm Q steps, each followed by
		// one whose deadline passes on the engine's third look (inside a step,
		// in the Solve a new cell needs): each killed run keeps what it
		// examined, so the runs add up to the compile.
		var snap *Snapshot
		for runs := 1; snap == nil; runs++ {
			ctx := obs.WithBudget(context.Background(), &obs.Budget{MaxQSteps: 3})
			if runs%2 == 0 {
				ctx = &expiring{Context: context.Background(), n: 3}
			}
			if snap, err = build(db, ctx); err != nil && !errors.Is(err, obs.ErrBudgetExceeded) && !errors.Is(err, context.DeadlineExceeded) {
				return append(out, fmt.Sprintf("%s: build %d after the kills: %v", op.name, runs, err))
			}
			if runs > 1<<16 {
				return append(out, fmt.Sprintf("%s: %d runs of three steps did not finish the build", op.name, runs))
			}
		}
		got, want := planOracle{snap: snap}, planOracle{snap: op.snap}
		for i := 0; i < cases; i++ {
			c := oracleCase{op, op.gen(rand.New(rand.NewSource(int64(pi)<<32 | int64(i)))), 0}
			text := c.spellings()[0].text
			g, gerr := got.Ask(text)
			w, werr := want.Ask(text)
			if a, b := (answer{g, gerr}), (answer{w, werr}); !sameAnswer(a, b) {
				out = append(out, fmt.Sprintf("%s: %q after the kills = %v, a fresh Open's = %v", op.name, text, a, b))
				break
			}
		}
	}
	return out
}

// TestCanceledCompileLeavesNoTrace: the compile a first read pays for runs
// under that read's context and budgets, a killed one publishes nothing, and
// the builds after it finish what it started.
func TestCanceledCompileLeavesNoTrace(t *testing.T) {
	for _, v := range canceledCompileViolations(oraclePrograms(t), oracleCases, (*Database).SnapshotContext) {
		t.Error(v)
	}
}

// TestCanceledCompileLeavesNoTraceCatches plants the bug the law is for: the
// build's deferred SetContext(nil) dropped, so the engine keeps the context of
// a build that died, and a later Solve outside any build (an Explain
// extending the fixpoint) would die of it too.
func TestCanceledCompileLeavesNoTraceCatches(t *testing.T) {
	leaky := func(db *Database, ctx context.Context) (*Snapshot, error) {
		s, err := db.SnapshotContext(ctx)
		db.Engine.SetContext(ctx)
		return s, err
	}
	vs := canceledCompileViolations(oraclePrograms(t)[:1], 10, leaky)
	for _, v := range vs {
		if strings.Contains(v, "the engine still holds") {
			t.Logf("caught: %s", v)
			return
		}
	}
	t.Errorf("the planted bug went unnoticed: %q", vs)
}
