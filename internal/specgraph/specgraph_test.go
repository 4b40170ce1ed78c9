package specgraph

import (
	"strings"
	"testing"

	"funcdb/internal/datagen"
	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

func buildSpec(t *testing.T, src string) *Spec {
	t.Helper()
	prog := parser.MustParse(src).Program
	prep, err := rewrite.Prepare(prog)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	eng, err := engine.New(prep, term.NewUniverse(), facts.NewWorld(), engine.Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	sp, err := Build(eng, Options{MaxReps: 10000})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sp
}

const meetingsSrc = `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`

// TestPaperMeetings reproduces the section 1 example: two clusters with
// representative days 0 and 1, the finite function f(0)=1, f(1)=0, and the
// primary database {Meets(0,tony), Meets(1,jan)}.
func TestPaperMeetings(t *testing.T) {
	sp := buildSpec(t, meetingsSrc)
	tab := sp.Eng.Prep.Program.Tab
	succ, _ := tab.LookupFunc("succ", 0)
	meets, _ := tab.LookupPred("Meets", 1, true)
	tony, _ := tab.LookupConst("tony")
	jan, _ := tab.LookupConst("jan")

	if len(sp.Reps) != 2 {
		t.Fatalf("representatives = %d, want 2:\n%s", len(sp.Reps), sp.Dump())
	}
	day0 := sp.U.Number(0, succ)
	day1 := sp.U.Number(1, succ)
	if sp.Reps[0] != day0 || sp.Reps[1] != day1 {
		t.Fatalf("representatives are not {0, 1}:\n%s", sp.Dump())
	}
	if s, _ := sp.Successor(day0, succ); s != day1 {
		t.Errorf("f(0) = %v, want 1", s)
	}
	if s, _ := sp.Successor(day1, succ); s != day0 {
		t.Errorf("f(1) = %v, want 0", s)
	}
	// Primary database: Meets(0, tony) and Meets(1, jan).
	if ok, _ := sp.Has(meets, day0, []symbols.ConstID{tony}); !ok {
		t.Errorf("B missing Meets(0, tony)")
	}
	if ok, _ := sp.Has(meets, day1, []symbols.ConstID{jan}); !ok {
		t.Errorf("B missing Meets(1, jan)")
	}
	// Membership through the Link rules: day 6 is tony's, day 7 jan's.
	if ok, _ := sp.Has(meets, sp.U.Number(6, succ), []symbols.ConstID{tony}); !ok {
		t.Errorf("Meets(6, tony) should hold")
	}
	if ok, _ := sp.Has(meets, sp.U.Number(7, succ), []symbols.ConstID{tony}); ok {
		t.Errorf("Meets(7, tony) should not hold")
	}
	if ok, _ := sp.Has(meets, sp.U.Number(7, succ), []symbols.ConstID{jan}); !ok {
		t.Errorf("Meets(7, jan) should hold")
	}
}

const listsSrc = `
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`

// TestPaperLists reproduces the section 3.4 run of Algorithm Q on the list
// program: Active = {a, b, ab}, Potential = {a, b, aa, ab, ba, bb, aba,
// abb}, representatives {0, a, b, ab}, and the successor mappings as
// printed in the paper.
func TestPaperLists(t *testing.T) {
	sp := buildSpec(t, listsSrc)
	tab := sp.Eng.Prep.Program.Tab
	extA, _ := tab.LookupFunc("ext'a", 0)
	extB, _ := tab.LookupFunc("ext'b", 0)
	u := sp.U
	mk := func(syms ...symbols.FuncID) term.Term { return u.ApplyString(term.Zero, syms...) }
	a := mk(extA)
	b := mk(extB)
	ab := mk(extA, extB)

	wantActive := []term.Term{a, b, ab}
	if len(sp.Active) != len(wantActive) {
		t.Fatalf("Active = %v, want {a, b, ab}:\n%s", sp.Active, sp.Dump())
	}
	for i, w := range wantActive {
		if sp.Active[i] != w {
			t.Fatalf("Active[%d] mismatch:\n%s", i, sp.Dump())
		}
	}
	wantPot := []term.Term{
		a, b,
		mk(extA, extA), ab, mk(extB, extA), mk(extB, extB),
		mk(extA, extB, extA), mk(extA, extB, extB),
	}
	if len(sp.Potentials) != len(wantPot) {
		t.Fatalf("Potentials = %d terms, want 8:\n%s", len(sp.Potentials), sp.Dump())
	}
	for i, w := range wantPot {
		if sp.Potentials[i] != w {
			t.Errorf("Potentials[%d] = %s, want %s",
				i, u.CompactString(sp.Potentials[i], tab), u.CompactString(w, tab))
		}
	}
	// Representatives: 0, a, b, ab.
	wantReps := []term.Term{term.Zero, a, b, ab}
	if len(sp.Reps) != 4 {
		t.Fatalf("representatives = %d, want 4:\n%s", len(sp.Reps), sp.Dump())
	}
	for i, w := range wantReps {
		if sp.Reps[i] != w {
			t.Errorf("Reps[%d] mismatch:\n%s", i, sp.Dump())
		}
	}
	// Successor mappings of the paper (plus the two from the root 0).
	type edge struct {
		from term.Term
		fn   symbols.FuncID
		to   term.Term
	}
	edges := []edge{
		{term.Zero, extA, a},
		{term.Zero, extB, b},
		{a, extA, a},
		{b, extB, b},
		{a, extB, ab},
		{b, extA, ab},
		{ab, extA, ab},
		{ab, extB, ab},
	}
	for _, e := range edges {
		got, ok := sp.Successor(e.from, e.fn)
		if !ok || got != e.to {
			t.Errorf("succ_%s(%s) = %s, want %s",
				tab.FuncName(e.fn), u.CompactString(e.from, tab),
				u.CompactString(got, tab), u.CompactString(e.to, tab))
		}
	}
	// Merges (the relation R): a~aa, ab~ba, b~bb, ab~aba, ab~abb.
	if len(sp.Merges) != 5 {
		t.Fatalf("merges = %d, want 5: %v", len(sp.Merges), sp.Merges)
	}
	wantMerges := []Merge{
		{a, mk(extA, extA)},
		{ab, mk(extB, extA)},
		{b, mk(extB, extB)},
		{ab, mk(extA, extB, extA)},
		{ab, mk(extA, extB, extB)},
	}
	for i, w := range wantMerges {
		if sp.Merges[i] != w {
			t.Errorf("Merges[%d] = {%s, %s}, want {%s, %s}",
				i,
				u.CompactString(sp.Merges[i].Rep, tab), u.CompactString(sp.Merges[i].Potential, tab),
				u.CompactString(w.Rep, tab), u.CompactString(w.Potential, tab))
		}
	}
	// Slices: L[0]={}, L[a]={Member(a,a)}, L[b]={Member(b,b)},
	// L[ab]={Member(ab,a), Member(ab,b)}.
	member, _ := tab.LookupPred("Member", 1, true)
	aC, _ := tab.LookupConst("a")
	bC, _ := tab.LookupConst("b")
	if n := len(sp.Slice(term.Zero)); n != 0 {
		t.Errorf("L[0] has %d tuples, want 0", n)
	}
	if n := len(sp.Slice(a)); n != 1 {
		t.Errorf("L[a] has %d tuples, want 1", n)
	}
	if n := len(sp.Slice(ab)); n != 2 {
		t.Errorf("L[ab] has %d tuples, want 2", n)
	}
	if ok, _ := sp.Has(member, ab, []symbols.ConstID{aC}); !ok {
		t.Errorf("Member(ab, a) missing")
	}
	if ok, _ := sp.Has(member, a, []symbols.ConstID{bC}); ok {
		t.Errorf("Member(a, b) wrongly in B")
	}
	// Deep membership through the Link rules: the list babab contains a
	// and b; the list bbb contains only b.
	babab := mk(extB, extA, extB, extA, extB)
	bbb := mk(extB, extB, extB)
	if ok, _ := sp.Has(member, babab, []symbols.ConstID{aC}); !ok {
		t.Errorf("Member(babab, a) should hold")
	}
	if ok, _ := sp.Has(member, bbb, []symbols.ConstID{aC}); ok {
		t.Errorf("Member(bbb, a) should not hold")
	}
}

// TestPaperEvenMerge checks that the temporal Even program yields exactly
// the single equation R = {(0, 2)} of section 3.5.
func TestPaperEvenMerge(t *testing.T) {
	sp := buildSpec(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	tab := sp.Eng.Prep.Program.Tab
	succ, _ := tab.LookupFunc("succ", 0)
	if sp.SeedDepth != 0 {
		t.Fatalf("temporal seed depth = %d, want 0", sp.SeedDepth)
	}
	if len(sp.Merges) != 1 {
		t.Fatalf("merges = %d, want 1 (the lasso-closing pair)", len(sp.Merges))
	}
	m := sp.Merges[0]
	if m.Rep != sp.U.Number(0, succ) || m.Potential != sp.U.Number(2, succ) {
		t.Fatalf("merge = (%s, %s), want (0, 2)",
			sp.U.String(m.Rep, tab), sp.U.String(m.Potential, tab))
	}
	if len(sp.Reps) != 2 {
		t.Fatalf("representatives = %d, want 2 (days 0 and 1)", len(sp.Reps))
	}
}

// TestPlannerFiniteSpec checks the situation-calculus example of section 1:
// the robot's infinite plan space collapses to finitely many clusters (one
// per reachable position profile).
func TestPlannerFiniteSpec(t *testing.T) {
	sp := buildSpec(t, `
At(0, p0).
Connected(p0, p1).
Connected(p1, p2).
Connected(p2, p0).
At(S, P1), Connected(P1, P2) -> At(move(S, P1, P2), P2).
`)
	tab := sp.Eng.Prep.Program.Tab
	at, _ := tab.LookupPred("At", 1, true)
	p0, _ := tab.LookupConst("p0")
	p2, _ := tab.LookupConst("p2")
	// move'p0'p1 then move'p1'p2: a two-step plan ending at p2.
	m01, ok1 := tab.LookupFunc("move'p0'p1", 0)
	m12, ok2 := tab.LookupFunc("move'p1'p2", 0)
	m20, ok3 := tab.LookupFunc("move'p2'p0", 0)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("derived move symbols missing")
	}
	plan2 := sp.U.ApplyString(term.Zero, m01, m12)
	if ok, _ := sp.Has(at, plan2, []symbols.ConstID{p2}); !ok {
		t.Errorf("At(move(move(0,p0,p1),p1,p2), p2) should hold")
	}
	// A full cycle returns to p0.
	cycle := sp.U.ApplyString(term.Zero, m01, m12, m20)
	if ok, _ := sp.Has(at, cycle, []symbols.ConstID{p0}); !ok {
		t.Errorf("the three-step cycle should end at p0")
	}
	if ok, _ := sp.Has(at, cycle, []symbols.ConstID{p2}); ok {
		t.Errorf("the three-step cycle does not end at p2")
	}
	// Invalid plans (moves from the wrong position) hold nowhere.
	bad := sp.U.ApplyString(term.Zero, m12)
	if ok, _ := sp.Has(at, bad, []symbols.ConstID{p2}); ok {
		t.Errorf("moving from p1 without being there should yield nothing")
	}
	reps, edges, tuples := sp.Size()
	if reps == 0 || edges == 0 || tuples == 0 {
		t.Errorf("degenerate spec: %d reps, %d edges, %d tuples", reps, edges, tuples)
	}
}

// TestRepresentativeClosedUnderSuccessor: walking any term through the DFA
// ends at a representative whose state equals the term's state.
func TestRepresentativeClosedUnderSuccessor(t *testing.T) {
	sp := buildSpec(t, listsSrc)
	u := sp.U
	var walk func(tm term.Term, d int)
	walk = func(tm term.Term, d int) {
		rep, err := sp.Representative(tm)
		if err != nil {
			t.Fatalf("Representative: %v", err)
		}
		if !sp.IsRep(rep) {
			t.Fatalf("walk ended at non-representative")
		}
		st, err := sp.Eng.StateOf(tm)
		if err != nil {
			t.Fatalf("StateOf: %v", err)
		}
		if st != sp.StateOfRep(rep) {
			t.Errorf("state mismatch at %v", tm)
		}
		if d == 5 {
			return
		}
		for _, f := range sp.Alphabet {
			walk(u.Apply(f, tm), d+1)
		}
	}
	walk(term.Zero, 0)
}

// TestCheckAll decides universal properties over all infinitely many
// terms: on the lists program, every list containing a also contains a (a
// tautology), and "no list contains both a and b" fails with ab as the
// counterexample.
func TestCheckAll(t *testing.T) {
	sp := buildSpec(t, listsSrc)
	tab := sp.Eng.Prep.Program.Tab
	member, _ := tab.LookupPred("Member", 1, true)
	aC, _ := tab.LookupConst("a")
	bC, _ := tab.LookupConst("b")

	ok, _ := sp.CheckAll(func(v ClusterView) bool {
		return !v.Has(member, []symbols.ConstID{aC}) || v.Has(member, []symbols.ConstID{aC})
	})
	if !ok {
		t.Errorf("tautology failed")
	}
	ok, counter := sp.CheckAll(func(v ClusterView) bool {
		return !(v.Has(member, []symbols.ConstID{aC}) && v.Has(member, []symbols.ConstID{bC}))
	})
	if ok {
		t.Fatalf("lists with both elements exist")
	}
	extA, _ := tab.LookupFunc("ext'a", 0)
	extB, _ := tab.LookupFunc("ext'b", 0)
	if counter != sp.U.ApplyString(term.Zero, extA, extB) {
		t.Errorf("counterexample = %s, want ab", sp.U.CompactString(counter, tab))
	}
	// A true safety property: every list containing a is reachable from a
	// state where extending by a keeps a a member (invariant under the
	// third rule). Simpler check: Member(s, a) implies Member(ext_a(s), a)
	// via the successor structure.
	ok, counter = sp.CheckAll(func(v ClusterView) bool {
		if !v.Has(member, []symbols.ConstID{aC}) {
			return true
		}
		next, _ := sp.Successor(v.Rep(), extA)
		a := sp.W.Atom(member, sp.W.Tuple([]symbols.ConstID{aC}))
		return sp.W.StateContains(sp.StateOfRep(next), a)
	})
	if !ok {
		t.Errorf("membership must persist under extension; counterexample %s",
			sp.U.CompactString(counter, tab))
	}
}

func TestDumpMentionsEverything(t *testing.T) {
	sp := buildSpec(t, meetingsSrc)
	d := sp.Dump()
	for _, want := range []string{"representatives", "L[0]", "L[1]", "succ_succ(0) = 1", "succ_succ(1) = 0"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func TestMaxRepsGuard(t *testing.T) {
	prog := parser.MustParse(listsSrc).Program
	prep, err := rewrite.Prepare(prog)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	eng, err := engine.New(prep, term.NewUniverse(), facts.NewWorld(), engine.Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	if _, err := Build(eng, Options{MaxReps: 2}); err == nil {
		t.Fatalf("MaxReps guard did not trip")
	}
}

// TestBuildStatesMatchEngine: Build steps each term's state from its
// parent's instead of walking it from the root. Every representative's
// remembered state, and through its representative every potential's, is the
// state the engine computes for the term from scratch; and every edge leads
// to the representative of the child term's state.
func TestBuildStatesMatchEngine(t *testing.T) {
	srcs := []string{meetingsSrc, listsSrc, datagen.RobotSrc(4), datagen.SubsetsSrc(4),
		datagen.CalendarSrc(8) + "Meets(3, s5).\n", datagen.RandomBidiSrc(4, 2, 5), datagen.RandomAutomatonSrc(5, 3, 2),
		"@functional A/1.\n@functional B/1.\nA(f(g(0))).\nA(S) -> A(f(S)).\nA(f(S)) -> B(S).\n"}
	for _, src := range srcs {
		sp := buildSpec(t, src)
		name := func(tm term.Term) string { return sp.U.CompactString(tm, sp.Eng.Prep.Program.Tab) }
		// The table itself: every cell names a state, and parent/via spell
		// each representative (so it walks to its own index).
		n, k := len(sp.Reps), len(sp.Alphabet)
		if len(sp.State) != n || len(sp.parent) != n || len(sp.via) != n || len(sp.trans) != n*k || sp.Reps[Root] != term.Zero {
			t.Fatalf("table of %d representatives over %d symbols: %d states, %d parents, %d vias, %d cells, root %s",
				n, k, len(sp.State), len(sp.parent), len(sp.via), len(sp.trans), name(sp.Reps[Root]))
		}
		for e, to := range sp.trans {
			if to < 0 || int(to) >= n {
				t.Errorf("cell (%d, %d) = %d, outside the %d states", e/k, e%k, to, n)
			}
		}
		for i, rep := range sp.Reps {
			if i == int(Root) {
				continue
			}
			p, v := sp.parent[i], sp.via[i]
			if p < 0 || int(p) >= i || v < 0 || int(v) >= k || sp.U.Apply(sp.Alphabet[v], sp.Reps[p]) != rep || sp.trans[int(p)*k+int(v)] != int32(i) {
				t.Errorf("representative %d (%s): parent %d via %d does not rebuild it", i, name(rep), p, v)
			}
			if got := sp.U.ApplyString(term.Zero, sp.Path(int32(i))...); got != rep {
				t.Errorf("representative %d (%s): Path spells %s", i, name(rep), name(got))
			}
			if at, _, ok := sp.Walk(sp.U.Symbols(rep)); !ok || at != int32(i) {
				t.Errorf("representative %d (%s) walks to state %d", i, name(rep), at)
			}
		}
		for _, rep := range sp.Reps {
			if want, err := sp.Eng.StateOf(rep); err != nil || sp.StateOfRep(rep) != want {
				t.Errorf("state of representative %s: remembered %d, engine %d (%v)", name(rep), sp.StateOfRep(rep), want, err)
			}
			for _, f := range sp.Alphabet {
				next, ok := sp.Successor(rep, f)
				if !ok {
					t.Fatalf("no edge from %s", name(rep))
				}
				if want, err := sp.Eng.StateOf(sp.U.Apply(f, rep)); err != nil || sp.StateOfRep(next) != want {
					t.Errorf("edge from %s leads to %s, whose state is not the child's", name(rep), name(next))
				}
			}
		}
		merged := make(map[term.Term]term.Term)
		for _, m := range sp.Merges {
			merged[m.Potential] = m.Rep
		}
		for _, p := range sp.Potentials {
			rep, ok := merged[p]
			if !ok {
				rep = p
			}
			if want, err := sp.Eng.StateOf(p); err != nil || sp.StateOfRep(rep) != want {
				t.Errorf("potential %s was given the state of %s, not its own", name(p), name(rep))
			}
		}
	}
}
