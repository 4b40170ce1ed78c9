package engine

import (
	"testing"

	"funcdb/internal/facts"
	"funcdb/internal/fixpoint"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

func build(t *testing.T, src string) *Engine {
	t.Helper()
	prog := parser.MustParse(src).Program
	prep, err := rewrite.Prepare(prog)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	e, err := New(prep, term.NewUniverse(), facts.NewWorld(), Options{MaxCells: 100000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Solve(); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return e
}

func mustHasAt(t *testing.T, e *Engine, pred symbols.PredID, tm term.Term, args []symbols.ConstID) bool {
	t.Helper()
	ok, err := e.HasAt(pred, tm, args)
	if err != nil {
		t.Fatalf("HasAt: %v", err)
	}
	return ok
}

const meetingsSrc = `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`

func TestMeetingsStates(t *testing.T) {
	e := build(t, meetingsSrc)
	tab := e.Prep.Program.Tab
	meets, _ := tab.LookupPred("Meets", 1, true)
	succ, _ := tab.LookupFunc("succ", 0)
	tony, _ := tab.LookupConst("tony")
	jan, _ := tab.LookupConst("jan")
	for n := 0; n <= 20; n++ {
		tm := e.U.Number(n, succ)
		wantTony := n%2 == 0
		if got := mustHasAt(t, e, meets, tm, []symbols.ConstID{tony}); got != wantTony {
			t.Errorf("Meets(%d, tony) = %v, want %v", n, got, wantTony)
		}
		if got := mustHasAt(t, e, meets, tm, []symbols.ConstID{jan}); got == wantTony {
			t.Errorf("Meets(%d, jan) = %v, want %v", n, got, !wantTony)
		}
	}
	// The paper's two congruence classes: state(0) == state(2) != state(1).
	s0, _ := e.StateOf(e.U.Number(0, succ))
	s1, _ := e.StateOf(e.U.Number(1, succ))
	s2, _ := e.StateOf(e.U.Number(2, succ))
	s3, _ := e.StateOf(e.U.Number(3, succ))
	if s0 != s2 || s1 != s3 || s0 == s1 {
		t.Errorf("states: s0=%d s1=%d s2=%d s3=%d; want s0==s2, s1==s3, s0!=s1", s0, s1, s2, s3)
	}
}

// TestDownwardRules exercises derivations that flow from children back to
// parents, which a depth-truncated evaluation cannot capture exactly.
func TestDownwardRules(t *testing.T) {
	e := build(t, `
Even(0).
Even(T) -> Even(T+2).
Even(T+2) -> Back(T).
`)
	tab := e.Prep.Program.Tab
	back, ok := tab.LookupPred("Back", 0, true)
	if !ok {
		t.Fatalf("Back not found")
	}
	succ, _ := tab.LookupFunc("succ", 0)
	for n := 0; n <= 11; n++ {
		tm := e.U.Number(n, succ)
		want := n%2 == 0
		if got := mustHasAt(t, e, back, tm, nil); got != want {
			t.Errorf("Back(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestGlobalFactFromDeepNode checks that a non-functional fact whose only
// derivation happens outside the anchor region is found.
func TestGlobalFactFromDeepNode(t *testing.T) {
	e := build(t, `
Deep(0).
Deep(T) -> Deep2(T+1).
Deep2(T) -> Deep3(T+1).
Deep3(T) -> FoundIt.
`)
	tab := e.Prep.Program.Tab
	found, ok := tab.LookupPred("FoundIt", 0, false)
	if !ok {
		t.Fatalf("FoundIt not found")
	}
	if !e.HasGlobal(found, nil) {
		t.Errorf("FoundIt not derived (Deep3 holds only at depth 2)")
	}
}

// TestSiblingJoin checks rules whose body spans two different children of
// the same node.
func TestSiblingJoin(t *testing.T) {
	e := build(t, `
@functional A/1.
@functional X/1.
@functional Y/1.
@functional Z/1.
A(0).
A(S) -> X(f(S)).
A(S) -> Y(g(S)).
X(f(S)), Y(g(S)) -> Z(S).
`)
	tab := e.Prep.Program.Tab
	z, _ := tab.LookupPred("Z", 0, true)
	f, _ := tab.LookupFunc("f", 0)
	if !mustHasAt(t, e, z, term.Zero, nil) {
		t.Errorf("Z(0) missing")
	}
	if mustHasAt(t, e, z, e.U.Apply(f, term.Zero), nil) {
		t.Errorf("Z(f(0)) wrongly derived")
	}
}

const listsSrc = `
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`

func TestListsStateEquivalence(t *testing.T) {
	e := build(t, listsSrc)
	tab := e.Prep.Program.Tab
	extA, _ := tab.LookupFunc("ext'a", 0)
	extB, _ := tab.LookupFunc("ext'b", 0)
	u := e.U
	st := func(syms ...symbols.FuncID) facts.StateID {
		s, err := e.StateOf(u.ApplyString(term.Zero, syms...))
		if err != nil {
			t.Fatalf("StateOf: %v", err)
		}
		return s
	}
	ab := st(extA, extB)
	ba := st(extB, extA)
	aba := st(extA, extB, extA)
	abb := st(extA, extB, extB)
	a := st(extA)
	aa := st(extA, extA)
	b := st(extB)
	bb := st(extB, extB)
	if ab != ba || ab != aba || ab != abb {
		t.Errorf("ab, ba, aba, abb should all be equivalent: %d %d %d %d", ab, ba, aba, abb)
	}
	if a != aa || b != bb {
		t.Errorf("a~aa and b~bb expected: a=%d aa=%d b=%d bb=%d", a, aa, b, bb)
	}
	if a == b || a == ab || b == ab {
		t.Errorf("a, b, ab must be pairwise distinct: %d %d %d", a, b, ab)
	}
}

// TestDifferentialAgainstFixpoint compares the engine against the
// depth-bounded evaluator on upward-only programs, where truncation at
// depth D is exact for facts at depth <= D.
func TestDifferentialAgainstFixpoint(t *testing.T) {
	sources := []string{
		meetingsSrc,
		listsSrc,
		`
At(0, p0).
Connected(p0, p1).
Connected(p1, p2).
Connected(p2, p0).
Connected(p1, p0).
At(S, P1), Connected(P1, P2) -> At(move(S, P1, P2), P2).
`,
		`
Holds(2).
Holds(T) -> Holds(T+2).
Holds(2), Holds(T) -> Seen(T).
Seen(T) -> Wrap(T+1).
`,
	}
	const depth = 5
	for _, src := range sources {
		prog := parser.MustParse(src).Program
		prep, err := rewrite.Prepare(prog)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		u := term.NewUniverse()
		w := facts.NewWorld()
		e, err := New(prep, u, w, Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := e.Solve(); err != nil {
			t.Fatalf("Solve: %v", err)
		}
		ref, err := fixpoint.Eval(prep.Program, u, w, fixpoint.Options{MaxDepth: depth})
		if err != nil {
			t.Fatalf("fixpoint.Eval: %v", err)
		}
		// Every fixpoint fact must be in the engine's model.
		for _, p := range ref.Store.FnPreds() {
			ref.Store.ForEachFn(p, func(tm term.Term, tu facts.TupleID) {
				ok, err := e.HasAt(p, tm, w.TupleArgs(tu))
				if err != nil {
					t.Fatalf("HasAt: %v", err)
				}
				if !ok {
					t.Errorf("engine missing %v at %s in:\n%s",
						prog.Tab.PredName(p), u.CompactString(tm, prog.Tab), src)
				}
			})
		}
		// Every engine fact at depth <= depth must be in the fixpoint store.
		var walk func(tm term.Term)
		walk = func(tm term.Term) {
			st, err := e.StateOf(tm)
			if err != nil {
				t.Fatalf("StateOf: %v", err)
			}
			for _, a := range w.StateAtoms(st) {
				p := w.AtomPred(a)
				args := w.TupleArgs(w.AtomTuple(a))
				if !ref.Store.HasFn(p, tm, args) {
					t.Errorf("engine over-derives %s at %s in:\n%s",
						prog.Tab.PredName(p), u.CompactString(tm, prog.Tab), src)
				}
			}
			if u.Depth(tm) < depth {
				for _, f := range prep.Funcs {
					walk(u.Apply(f, tm))
				}
			}
		}
		walk(term.Zero)
		// Non-functional facts must agree exactly.
		for _, a := range ref.Store.Data().All() {
			if !e.Global().Has(e.W, a) {
				t.Errorf("engine missing global fact in:\n%s", src)
			}
		}
		for _, a := range e.Global().All() {
			if !ref.Store.Data().Has(e.W, a) {
				t.Errorf("engine over-derives global fact in:\n%s", src)
			}
		}
	}
}

// TestCongruenceProperty checks Lemma 3.1 on the list program: terms with
// equal states have children with equal states.
func TestCongruenceProperty(t *testing.T) {
	e := build(t, listsSrc)
	u := e.U
	// Enumerate all terms to depth 4 and bucket by state.
	byState := make(map[facts.StateID][]term.Term)
	var walk func(tm term.Term)
	walk = func(tm term.Term) {
		s, err := e.StateOf(tm)
		if err != nil {
			t.Fatalf("StateOf: %v", err)
		}
		byState[s] = append(byState[s], tm)
		if u.Depth(tm) < 4 {
			for _, f := range e.Prep.Funcs {
				walk(u.Apply(f, tm))
			}
		}
	}
	walk(term.Zero)
	for s, terms := range byState {
		if len(terms) < 2 {
			continue
		}
		for _, f := range e.Prep.Funcs {
			want, err := e.StateOf(u.Apply(f, terms[0]))
			if err != nil {
				t.Fatalf("StateOf: %v", err)
			}
			for _, tm := range terms[1:] {
				got, err := e.StateOf(u.Apply(f, tm))
				if err != nil {
					t.Fatalf("StateOf: %v", err)
				}
				if got != want {
					t.Errorf("congruence violated: state %d, symbol %v", s, f)
				}
			}
		}
	}
}

func TestMaxCellsGuard(t *testing.T) {
	prog := parser.MustParse(listsSrc).Program
	prep, err := rewrite.Prepare(prog)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	e, err := New(prep, term.NewUniverse(), facts.NewWorld(), Options{MaxCells: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Solve(); err == nil {
		t.Fatalf("MaxCells guard did not trip")
	}
}

func TestStatsPopulated(t *testing.T) {
	e := build(t, meetingsSrc)
	st := e.Stats()
	if st.Rounds == 0 || st.Cells == 0 || st.AnchorsCount == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}
