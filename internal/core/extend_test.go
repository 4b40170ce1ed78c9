package core

import (
	"context"
	"testing"

	"funcdb/internal/datagen"
	"funcdb/internal/engine"
)

// fullRecompile builds a fresh database over the combined source, the
// reference for every Extend test.
func fullRecompile(t *testing.T, base, extra string) *Database {
	t.Helper()
	db, err := Open(base+"\n"+extra, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

// askAll compares two databases on a list of yes-no queries.
func askAll(t *testing.T, got, want *Database, queries []string) {
	t.Helper()
	for _, q := range queries {
		g, err := got.Ask(context.Background(), q)
		if err != nil {
			t.Fatalf("Ask(%s): %v", q, err)
		}
		w, err := want.Ask(context.Background(), q)
		if err != nil {
			t.Fatalf("Ask(%s): %v", q, err)
		}
		if g != w {
			t.Errorf("Ask(%s) = %v after Extend, %v after recompile", q, g, w)
		}
	}
}

func TestExtendMonotoneTemporal(t *testing.T) {
	base := `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`
	db, err := Open(base, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Compile once, then extend with a second chain seeded on day 0.
	if _, err := db.Graph(); err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if err := db.Extend(`Meets(0, jan).`); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	ref := fullRecompile(t, base, `Meets(0, jan).`)
	askAll(t, db, ref, []string{
		`?- Meets(0, jan).`,
		`?- Meets(1, tony).`,
		`?- Meets(7, jan).`,
		`?- Meets(7, tony).`,
		`?- Meets(8, bob).`,
	})
}

func TestExtendDeeperFactIsMonotone(t *testing.T) {
	base := `
Even(0).
Even(T) -> Even(T+2).
`
	db, err := Open(base, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := db.Graph(); err != nil {
		t.Fatalf("Graph: %v", err)
	}
	// A fact at depth 5 deepens the anchor region and the seed depth; the
	// engine takes it as it stands, and answers match a full recompile.
	eng := db.Engine
	if err := db.Extend(`Even(5).`); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if db.Engine != eng {
		t.Errorf("a deeper fact recompiled the program")
	}
	ref := fullRecompile(t, base, `Even(5).`)
	askAll(t, db, ref, []string{
		`?- Even(4).`,
		`?- Even(5).`,
		`?- Even(7).`,
		`?- Even(9).`,
		`?- Even(8).`,
		`?- Even(10).`,
	})
	st, err := db.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.C != 5 || st.SeedDepth != ref.Prep.SeedDepth {
		t.Errorf("c, seed depth = %d, %d after deep Extend, want 5, %d", st.C, st.SeedDepth, ref.Prep.SeedDepth)
	}
}

func TestExtendNewConstantWithMixedRecompiles(t *testing.T) {
	base := `
P(a).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`
	db, err := Open(base, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := db.Graph(); err != nil {
		t.Fatalf("Graph: %v", err)
	}
	// A brand-new constant b requires re-running mixed elimination: the
	// symbol ext'b does not exist yet.
	if err := db.Extend(`P(b).`); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	ref := fullRecompile(t, base, `P(b).`)
	askAll(t, db, ref, []string{
		`?- Member(ext(0, b), b).`,
		`?- Member(ext(ext(0, a), b), a).`,
		`?- Member(ext(0, a), b).`,
	})
	// The spec must now have the four-cluster shape of the two-element
	// list example.
	st, err := db.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Reps != 4 {
		t.Errorf("reps = %d after Extend, want 4", st.Reps)
	}
}

func TestExtendGlobalFact(t *testing.T) {
	base := `
At(0, p0).
Connected(p0, p1).
At(S, P1), Connected(P1, P2) -> At(move(S, P1, P2), P2).
`
	db, err := Open(base, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := db.Graph(); err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if err := db.Extend(`Connected(p1, p0).`); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	ref := fullRecompile(t, base, `Connected(p1, p0).`)
	askAll(t, db, ref, []string{
		`?- At(move(move(0, p0, p1), p1, p0), p0).`,
		`?- At(move(0, p0, p1), p1).`,
	})
}

func TestExtendRejectsRulesAndNonGround(t *testing.T) {
	db, err := Open(`
Even(0).
Even(T) -> Even(T+2).
`, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := db.Extend(`Even(T) -> Even(T+4).`); err == nil {
		t.Errorf("rule accepted by Extend")
	}
	if err := db.Extend(`?- Even(2).`); err == nil {
		t.Errorf("query accepted by Extend")
	}
	if err := db.Extend(`Even(X).`); err == nil {
		t.Errorf("non-ground fact accepted by Extend")
	}
}

// TestExtendNewBranchAnchor exercises the monotone fast path when the new
// fact sits on a branch previously represented only by memoized cells: the
// branch becomes part of the concrete anchor region and all derivations
// must be re-established there.
func TestExtendNewBranchAnchor(t *testing.T) {
	base := `
@functional A/1.
@functional B/1.
A(f(g(0))).
A(S) -> A(f(S)).
A(f(S)) -> B(S).
`
	db, err := Open(base, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := db.Graph(); err != nil {
		t.Fatalf("Graph: %v", err)
	}
	// Depth 2 == c and no new constants: the fast path applies, but g(f(0))
	// and its prefix f(0) were not anchors before.
	if err := db.Extend(`A(g(f(0))).`); err != nil {
		t.Fatalf("Extend: %v", err)
	}
	ref := fullRecompile(t, base, `A(g(f(0))).`)
	askAll(t, db, ref, []string{
		`?- A(g(f(0))).`,
		`?- A(f(g(f(0)))).`,
		`?- A(f(f(g(f(0))))).`,
		`?- B(g(f(0))).`,
		`?- B(f(g(0))).`,
		`?- B(f(0)).`,
		`?- A(f(0)).`,
		`?- A(0).`,
		`?- B(0).`,
	})
}

func TestExtendRules(t *testing.T) {
	db, err := Open(`
Even(0).
Even(T) -> Even(T+2).
`, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := db.Graph(); err != nil {
		t.Fatalf("Graph: %v", err)
	}
	if err := db.ExtendRules(`Even(T) -> Shadow(T+1).
@functional Shadow/1.`); err != nil {
		t.Fatalf("ExtendRules: %v", err)
	}
	got, err := db.Ask(context.Background(), `?- Shadow(5).`)
	if err != nil {
		t.Fatalf("Ask: %v", err)
	}
	if !got {
		t.Errorf("Shadow(5) should hold (Even(4) shifted)")
	}
	got, err = db.Ask(context.Background(), `?- Shadow(4).`)
	if err != nil {
		t.Fatalf("Ask: %v", err)
	}
	if got {
		t.Errorf("Shadow(4) should not hold")
	}
	// Old answers survive the recompile.
	if got, _ := db.Ask(context.Background(), `?- Even(6).`); !got {
		t.Errorf("Even(6) lost after ExtendRules")
	}
	// Queries and garbage are rejected.
	if err := db.ExtendRules(`?- Even(0).`); err == nil {
		t.Errorf("query accepted by ExtendRules")
	}
	if err := db.ExtendRules(`Even(`); err == nil {
		t.Errorf("garbage accepted by ExtendRules")
	}
}

func TestExtendSequence(t *testing.T) {
	// Several extensions in a row stay consistent with one big recompile.
	base := `
Holds(0).
Holds(T) -> Holds(T+3).
`
	db, err := Open(base, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	extras := []string{`Holds(1).`, `Holds(2).`}
	for _, e := range extras {
		if err := db.Extend(e); err != nil {
			t.Fatalf("Extend(%s): %v", e, err)
		}
	}
	ref := fullRecompile(t, base, `Holds(1).
Holds(2).`)
	queries := []string{}
	for n := 0; n <= 12; n++ {
		queries = append(queries, formatHolds(n))
	}
	askAll(t, db, ref, queries)
}

func formatHolds(n int) string {
	return "?- Holds(" + itoa(n) + ")."
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// TestExtendSolveFailureRecompiles: the engine can take a batch and then fail
// to re-solve — here the cells of the fixpoints the database has passed
// through, which stay until the next sweep, push it over MaxCells although
// the extended program is well within the bound when solved from scratch.
// Extend must absorb that with a full rebuild instead of returning an error
// with the facts appended to the source but the engine half-stepped, and the
// ground depth a deep fact of the batch brings comes from the rebuilt
// program, not from the abandoned fast path.
func TestExtendSolveFailureRecompiles(t *testing.T) {
	base := datagen.CalendarSrc(8)
	db, err := Open(base, Options{Engine: engine.Options{MaxCells: 12}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if yes, err := db.Ask(context.Background(), `?- Meets(9, s1).`); err != nil || !yes {
		t.Fatalf("Ask = %v, %v", yes, err)
	}
	extra := ""
	for i, fact := range []string{"Meets(0, s3).", "Meets(2, s6).", "Meets(0, s5)."} {
		eng := db.Engine
		if err := db.Extend(fact); err != nil {
			t.Fatalf("Extend %d: %v", i, err)
		}
		if db.Engine == eng {
			t.Errorf("Extend %d: the engine held %d cells and did not fail", i, eng.Stats().Cells)
		}
		extra += fact + "\n"
		if yes, err := db.Ask(context.Background(), "?- "+fact); err != nil || !yes {
			t.Fatalf("Ask after Extend %d = %v, %v", i, yes, err)
		}
		ref := fullRecompile(t, base, extra)
		if db.Prep.C != ref.Prep.C || db.Prep.SeedDepth != ref.Prep.SeedDepth {
			t.Errorf("Extend %d: c, seed depth = %d, %d; reopened %d, %d", i, db.Prep.C, db.Prep.SeedDepth, ref.Prep.C, ref.Prep.SeedDepth)
		}
		askAll(t, db, ref, []string{
			`?- Meets(8, s3).`, `?- Meets(3, s6).`, `?- Meets(10, s0).`, `?- Meets(1, s6).`, `?- Meets(5, s2).`,
		})
	}
}
