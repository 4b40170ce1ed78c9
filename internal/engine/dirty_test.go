package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"funcdb/internal/ast"
	"funcdb/internal/datagen"
	"funcdb/internal/facts"
	"funcdb/internal/fixpoint"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/subst"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// differentialSources are the acceptance corpus plus a small instance of
// every datagen family.
func differentialSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"calendar":  datagen.CalendarSrc(8),
		"chain":     datagen.ChainSrc(3),
		"subsets":   datagen.SubsetsSrc(3),
		"robot":     datagen.RobotSrc(3),
		"automaton": datagen.RandomAutomatonSrc(4, 2, 7),
		"temporal":  datagen.RandomTemporalSrc(4, 11),
		"bidi":      datagen.RandomBidiSrc(4, 2, 5),
	}
	for _, c := range joinCases {
		srcs["join: "+c.name] = c.src
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.fdb"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(raw)
	}
	return srcs
}

// enginePair builds the tracked engine and its oracle — the same program
// evaluated with every anchor and cell re-run in every round — over one
// universe and one world, so equal states have equal ids.
func enginePair(t *testing.T, src string) (tracked, oracle *Engine) {
	t.Helper()
	prep, err := rewrite.Prepare(parser.MustParse(src).Program)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	u, w := term.NewUniverse(), facts.NewWorld()
	if tracked, err = New(prep, u, w, Options{}); err != nil {
		t.Fatalf("New: %v", err)
	}
	if oracle, err = New(prep, u, w, Options{DisableDirtySkip: true}); err != nil {
		t.Fatalf("New: %v", err)
	}
	return tracked, oracle
}

// termsTo lists the terms over the engine's alphabet breadth-first to the
// given depth, stopping at limit terms.
func termsTo(e *Engine, depth, limit int) []term.Term {
	out := []term.Term{term.Zero}
	for i := 0; i < len(out) && len(out) < limit; i++ {
		if e.U.Depth(out[i]) == depth {
			break
		}
		for _, f := range e.Prep.Funcs {
			out = append(out, e.U.Apply(f, out[i]))
		}
	}
	return out
}

func sortedAtoms(s *facts.Set) []facts.AtomID {
	all := s.All()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// sameFixpoint solves both engines and compares every state to depth
// SeedDepth+3 and the global facts.
func sameFixpoint(t *testing.T, when string, got, want *Engine) {
	t.Helper()
	for _, tm := range termsTo(want, want.Prep.SeedDepth+3, 1500) {
		g, err := got.StateOf(tm)
		if err != nil {
			t.Fatalf("%s: StateOf: %v", when, err)
		}
		w, err := want.StateOf(tm)
		if err != nil {
			t.Fatalf("%s: oracle StateOf: %v", when, err)
		}
		if g != w {
			t.Fatalf("%s: state of %s is %v, the oracle's %v", when,
				want.U.CompactString(tm, want.Prep.Program.Tab), got.W.StateAtoms(g), got.W.StateAtoms(w))
		}
	}
	g, w := sortedAtoms(got.Global()), sortedAtoms(want.Global())
	if len(g) != len(w) {
		t.Fatalf("%s: %d global facts, the oracle has %d", when, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: global facts differ", when)
		}
	}
}

// factStream draws base facts the engine may take without a recompile:
// predicates and constants of the program, at terms no deeper than its
// ground depth.
type factStream struct {
	e       *Engine
	rng     *rand.Rand
	fnPreds []symbols.PredID
	dtPreds []symbols.PredID
	consts  []symbols.ConstID
	shallow []term.Term // every term of depth <= C
}

func newFactStream(e *Engine, seed int64) *factStream {
	s := &factStream{e: e, rng: rand.New(rand.NewSource(seed)), consts: e.Prep.Original.ConstsUsed()}
	tab := e.Prep.Program.Tab
	var preds []symbols.PredID
	for p := range e.Prep.OriginalPreds {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
	for _, p := range preds {
		info := tab.PredInfo(p)
		if info.Arity > 0 && len(s.consts) == 0 {
			continue
		}
		if info.Functional {
			s.fnPreds = append(s.fnPreds, p)
		} else {
			s.dtPreds = append(s.dtPreds, p)
		}
	}
	s.shallow = termsTo(e, e.Prep.C, 400)
	return s
}

func (s *factStream) args(p symbols.PredID) []symbols.ConstID {
	args := make([]symbols.ConstID, s.e.Prep.Program.Tab.PredInfo(p).Arity)
	for i := range args {
		args[i] = s.consts[s.rng.Intn(len(s.consts))]
	}
	return args
}

// fact describes one base fact; apply adds it to an engine.
type fact struct {
	kind string
	pred symbols.PredID
	at   term.Term // term.None for a global fact
	args []symbols.ConstID
}

func (f fact) apply(e *Engine) {
	if f.at == term.None {
		e.AddGlobalFact(f.pred, f.args)
	} else {
		e.AddGroundFact(f.pred, f.at, f.args)
	}
}

func (s *factStream) next(prev *fact) (fact, bool) {
	var kinds []string
	if len(s.fnPreds) > 0 {
		kinds = append(kinds, "shallow", "deep", "new-branch")
	}
	if len(s.dtPreds) > 0 {
		kinds = append(kinds, "global")
	}
	if prev != nil {
		kinds = append(kinds, "duplicate")
	}
	if len(kinds) == 0 {
		return fact{}, false
	}
	switch kind := kinds[s.rng.Intn(len(kinds))]; kind {
	case "duplicate":
		f := *prev
		f.kind = kind
		return f, true
	case "global":
		p := s.dtPreds[s.rng.Intn(len(s.dtPreds))]
		return fact{kind, p, term.None, s.args(p)}, true
	default:
		p := s.fnPreds[s.rng.Intn(len(s.fnPreds))]
		at := term.Zero
		switch kind {
		case "deep":
			for _, tm := range s.shallow {
				if s.e.U.Depth(tm) == s.e.Prep.C && s.rng.Intn(3) == 0 {
					at = tm
				}
			}
		case "new-branch":
			anchored := make(map[term.Term]bool)
			for _, tm := range s.e.AnchorTerms() {
				anchored[tm] = true
			}
			for _, tm := range s.shallow {
				if !anchored[tm] && (at == term.Zero || s.rng.Intn(3) == 0) {
					at = tm
				}
			}
		}
		return fact{kind, p, at, s.args(p)}, true
	}
}

// TestTrackedMatchesOracle: skipping the cells whose inputs have not grown
// changes no state. The tracked engine (swept after every step, as Extend
// would once enough cells had died) and the evaluate-everything oracle agree
// on every state and global fact, cold and after each step of a seeded
// random sequence of base facts: at the root, at the deepest ground terms,
// on branches that were cells until then, global, and repeated.
func TestTrackedMatchesOracle(t *testing.T) {
	skipped := 0
	defer func() {
		if skipped == 0 {
			t.Errorf("the tracked engines skipped no evaluation at all")
		}
	}()
	for name, src := range differentialSources(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			tracked, oracle := enginePair(t, src)
			sameFixpoint(t, "cold", tracked, oracle)
			defer func() { skipped += tracked.Stats().SkippedEvals }()
			stream := newFactStream(tracked, 1)
			var prev *fact
			for step := 0; step < 12; step++ {
				f, ok := stream.next(prev)
				if !ok {
					return
				}
				prev = &f
				f.apply(tracked)
				f.apply(oracle)
				if err := tracked.Solve(); err != nil {
					t.Fatalf("Solve: %v", err)
				}
				tracked.kept = 0 // sweep now, not when enough cells have died
				tracked.Sweep()
				sameFixpoint(t, "step "+f.kind, tracked, oracle)
			}
		})
	}
}

// TestSweepDropsDeadCells: every fact at the root of a calendar leaves a
// period's worth of cells keyed on states no day has any more. Sweep, left to
// decide for itself when, keeps their number within a constant factor of what
// the cold solve made, and the swept engine still answers as the oracle.
func TestSweepDropsDeadCells(t *testing.T) {
	tracked, oracle := enginePair(t, datagen.CalendarSrc(16))
	if err := tracked.Solve(); err != nil {
		t.Fatal(err)
	}
	tab := tracked.Prep.Program.Tab
	meets, _ := tab.LookupPred("Meets", 1, true)
	cold := tracked.Stats().Cells
	for k := 1; k < 12; k++ {
		c, _ := tab.LookupConst("s" + string(rune('0'+k%10)))
		for _, e := range []*Engine{tracked, oracle} {
			e.AddGroundFact(meets, term.Zero, []symbols.ConstID{c})
		}
		if err := tracked.Solve(); err != nil {
			t.Fatal(err)
		}
		tracked.Sweep()
	}
	if got := tracked.Stats().Cells; got > 2*cold+16 {
		t.Errorf("%d cells after 11 facts and sweeps; the cold solve made %d", got, cold)
	}
	sameFixpoint(t, "after sweeps", tracked, oracle)
}

// TestDeadlineNoticedMidRound: a round over a large program is most of the
// solve, so the context is polled inside it. A cold Subsets(10) engine under
// a 5 ms deadline gives up within 40 ms (one poll per round took ~110 ms),
// and solving on afterwards reaches the states a fresh engine does.
func TestDeadlineNoticedMidRound(t *testing.T) {
	var took time.Duration
	for attempt := 0; attempt < 3; attempt++ { // the bound is on time: allow for a noisy machine
		stopped, fresh := enginePair(t, datagen.SubsetsSrc(10))
		fresh.opts.DisableDirtySkip = false // the reference here is an uninterrupted solve, not the oracle
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		stopped.SetContext(ctx)
		start := time.Now()
		err := stopped.Solve()
		took = time.Since(start)
		cancel()
		if err != context.DeadlineExceeded {
			t.Fatalf("Solve under a 5 ms deadline: %v after %v, want the context's error", err, took)
		}
		stopped.SetContext(nil)
		if err := stopped.Solve(); err != nil {
			t.Fatalf("Solve after the deadline: %v", err)
		}
		for _, tm := range termsTo(fresh, 2, 200) {
			g, _ := stopped.StateOf(tm)
			w, _ := fresh.StateOf(tm)
			if g != w {
				t.Fatalf("state of %s differs after an interrupted solve", fresh.U.CompactString(tm, fresh.Prep.Program.Tab))
			}
		}
		if took < 40*time.Millisecond {
			t.Logf("deadline noticed after %v", took)
			return
		}
	}
	t.Errorf("a 5 ms deadline was noticed after %v, want under 40ms", took)
}

// pollLimit is a context whose Err reads nil n times and Canceled from then
// on: a solve under it stops at its (n+1)th look.
type pollLimit struct {
	context.Context
	n int
}

func (c *pollLimit) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestStoppedSolveResumes: a solve the context stops goes on from the cell
// its round had reached. A cold Subsets(8) solved under contexts that each
// allow three looks, one after another until it finishes, does the work of
// an uninterrupted solve cell for cell: the same rounds, cell evaluations,
// skipped cells and rule firings, and the same states. (A stopped round that
// started over re-checked every cell before its stop, and the race build
// took ~125 ms a read to get back to where a 20 ms read of a Subsets(14)
// compile had stopped.)
func TestStoppedSolveResumes(t *testing.T) {
	stopped, whole := enginePair(t, datagen.SubsetsSrc(8))
	whole.opts.DisableDirtySkip = false // the reference is an uninterrupted solve, not the oracle
	if err := whole.Solve(); err != nil {
		t.Fatal(err)
	}
	stops := 0
	for {
		stopped.SetContext(&pollLimit{context.Background(), 2})
		err := stopped.Solve()
		if err == nil {
			break
		}
		if err != context.Canceled {
			t.Fatal(err)
		}
		if stops++; stops > 1000 {
			t.Fatalf("%d stopped solves did not finish one", stops)
		}
	}
	stopped.SetContext(nil)
	g, w := stopped.Stats(), whole.Stats()
	t.Logf("%d stops; %d rounds, %d cells evaluated, %d skipped", stops, g.Rounds, g.CellEvals, g.SkippedEvals)
	if stops == 0 {
		t.Fatal("no solve was stopped: the test no longer stops a round")
	}
	if g.Rounds != w.Rounds || g.CellEvals != w.CellEvals || g.SkippedEvals != w.SkippedEvals || g.RuleFirings != w.RuleFirings {
		t.Errorf("stopped %d times: %d rounds, %d cells evaluated, %d skipped, %d firings; uninterrupted %d, %d, %d, %d",
			stops, g.Rounds, g.CellEvals, g.SkippedEvals, g.RuleFirings, w.Rounds, w.CellEvals, w.SkippedEvals, w.RuleFirings)
	}
	for _, tm := range termsTo(whole, 3, 600) {
		g, _ := stopped.StateOf(tm)
		if w, _ := whole.StateOf(tm); g != w {
			t.Fatalf("state of %s differs after stopped solves", whole.U.CompactString(tm, whole.Prep.Program.Tab))
		}
	}
}

// TestCellInputs isolates each kind of input a cell's stamp has to cover, in
// a program where that input is the only thing that changes between two
// evaluations of some cell that stays in use (rules are listed so that a
// derivation takes one round per step; a base fact lands where it changes no
// state above the cell): leave the input out of the stamp and the cell is
// skipped with a fact still to derive.
func TestCellInputs(t *testing.T) {
	const decls = "@functional A/1.\n@functional B/1.\n@functional C/1.\n@functional D/1.\n@functional P/1.\n@functional P2/1.\n@functional X/1.\n@functional Y/1.\n"
	cases := []struct {
		name, src string
		// then, if set, names a base fact added after the cold solve: the
		// predicate, and the term it holds at (nil for a global fact G(a)).
		then string
		at   []string
	}{
		{name: "own set", src: `
A(0).
A(S) -> A(f(S)).
C(S) -> D(S).
B(S) -> C(S).
A(S) -> B(S).`},
		{name: "child cell", src: `
A(0).
A(S) -> P(f(S)).
P(S) -> P2(f(S)).
X(S) -> B(S).
P2(S) -> X(S).
B(f(S)) -> C(S).`},
		{name: "sibling cell", src: `
A(0).
A(S) -> P(g(S)).
P2(S) -> Y(S).
P(S) -> P2(S).
Y(g(S)) -> X(f(S)).`},
		{name: "global facts", src: `
A(0).
K(a).
G(b).
A(S) -> P(f(S)).
P(S) -> P(f(S)).
G(a), P(S) -> C(S).`, then: "G"},
		{name: "ground anchor", src: `
A(0).
A(S) -> P(f(S)).
P(S) -> P(f(S)).
B(g(0)), P(S) -> C(S).`, then: "B", at: []string{"g"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tracked, oracle := enginePair(t, decls+c.src)
			sameFixpoint(t, "cold", tracked, oracle)
			if c.then == "" {
				return
			}
			tab := tracked.Prep.Program.Tab
			add := func(e *Engine) {
				if c.at == nil {
					pred, _ := tab.LookupPred(c.then, 1, false)
					a, _ := tab.LookupConst("a")
					e.AddGlobalFact(pred, []symbols.ConstID{a})
					return
				}
				pred, _ := tab.LookupPred(c.then, 0, true)
				at := term.Zero
				for _, name := range c.at {
					f, _ := tab.LookupFunc(name, 0)
					at = e.U.Apply(f, at)
				}
				e.AddGroundFact(pred, at, nil)
			}
			add(tracked)
			add(oracle)
			sameFixpoint(t, "after "+c.then, tracked, oracle)
			f, _ := tab.LookupFunc("f", 0)
			cpred, _ := tab.LookupPred("C", 0, true)
			if !mustHasAt(t, tracked, cpred, tracked.U.Apply(f, term.Zero), nil) {
				t.Errorf("C(f(0)) does not follow from the new fact")
			}
		})
	}
}

// joinCase is a program and the base facts added to it after its cold solve,
// one element of then at a time.
type joinCase struct {
	name, src string
	then      []string
}

// joinCases are programs in which one thing each breaks a wrong join plan or
// a wrong delta inside a cell. Every one has a chain of cells below f (the
// calendar's below its one symbol), rules listed so that what the join reads
// arrives over several evaluations of the same cell, and nothing else going
// on. No base fact of then changes a state above the cells, and the tracked
// engine is swept after each element.
var joinCases = []joinCase{
	// E(a) is pushed into the cell, E(b) derived there two evaluations later:
	// Pair needs old × new, new × old and new × new.
	{name: "one predicate twice", src: `
A(0).
A(S) -> A(f(S)).
A(S) -> E(f(S), a).
E(S, X), E(S, Y) -> Pair(S, X, Y).
B(S) -> E(S, b).
A(S) -> B(S).`},
	// The second X compares; only R(a, a) is on the diagonal.
	{name: "repeated variable", src: `
A(0).
A(S) -> A(f(S)).
A(S) -> R(f(S), a, a).
A(S) -> R(f(S), a, b).
R(S, X, X) -> Diag(S, X).`},
	{name: "constant in the body", src: `
A(0).
A(S) -> A(f(S)).
A(S) -> R(f(S), a, d).
A(S) -> R(f(S), b, c).
R(S, a, X) -> Hit(S, X).`},
	// K × L has no variable in common: the plan joins M second and is left
	// with L as a test. L(e) then arrives as the delta of the last literal
	// joined, which is the middle one of the text.
	{name: "cross product first", src: `
K(a). K(b). L(c). L(d).
A(0).
A(S) -> A(f(S)).
A(S) -> M(f(S), a, c).
A(S) -> M(f(S), b, e).
K(X), L(Y), M(S, X, Y) -> N(S, X, Y).`, then: []string{"L(e)."}},
	// G(a) is derived two cells down, after the cell that joins G has been
	// evaluated with none.
	{name: "global set grows", src: `
A(0).
G(X), B(S) -> D(S, X).
A(S) -> B(f(S)).
B(S) -> C(f(S)).
C(S) -> G(a).`, then: []string{"G(b)."}},
	// The cell of f reads Y from its sibling below g, where Y(a) is there on
	// the first evaluation and Y(b) on the fourth, when nothing else of what
	// the cell of f reads has moved for two rounds. W(g(0)) then makes g(0) an
	// anchor, which no state query reads through a cell any more, while the
	// cell of f goes on reading the sibling cell it holds stamps against; the
	// second fact has it evaluated after that sweep.
	{name: "sibling grows", src: `
K(a). K(b). K(c).
A(0).
A(S) -> P(g(S), a).
A(S) -> Q(g(S)).
W3(S) -> P(S, b).
W2(S) -> W3(S).
W(S) -> W2(S).
Q(S) -> W(S).
P(S, V) -> Y(S, V).
Y(g(S), V), K(V) -> X(f(S), V).`, then: []string{"W(g(0)).", "P(g(0), c)."}},
	// The rest hold a list longer than a scan (16 atoms), which a join
	// probes by the value of an argument position fixed before it. The
	// calendar's 64 Next facts are one global list, and every cell joins
	// Meets × Next on Next's first argument. Twenty Next facts then arrive at
	// once, so a re-evaluation joins a window past the stamp that is long too,
	// its buckets holding positions on both sides of it; one more follows.
	{name: "calendar past the scan", src: datagen.CalendarSrc(64), then: []string{
		repeat(20, func(i int) string { return fmt.Sprintf("Next(s%d, s%d).", 3*i, (3*i+32)%64) }),
		"Next(s7, s50).",
	}},
	// R(S, a, X) probes the cell's own set by the constant a: 18 atoms pushed
	// into the cell, 18 more derived there three evaluations later.
	{name: "constant past the scan", src: `
A(0).
A(S) -> A(f(S)).
` + repeat(18, func(i int) string { return fmt.Sprintf("A(S) -> R(f(S), %s, c%d).", ab(i), i) }) + `
R(S, a, X) -> Hit(S, X).
` + repeat(18, func(i int) string { return fmt.Sprintf("B(S) -> R(S, %s, d%d).", ab(i), i) }) + `
C(S) -> B(S).
A(S) -> C(S).`},
	// The second X of E(S, X, X) is bound by the first, in the same literal:
	// nothing is fixed before it, and the join scans.
	{name: "repeated variable past the scan", src: `
A(0).
A(S) -> A(f(S)).
` + repeat(18, func(i int) string { return fmt.Sprintf("A(S) -> E(f(S), c%d, c%d).", i, i+i%3) }) + `
E(S, X, X) -> Diag(S, X).`},
	// B at the anchor g(0) is probed by X from the cells below f, and at g(0)
	// itself by the X that K binds.
	{name: "ground input past the scan", src: `
K(a).
` + repeat(18, func(i int) string { return fmt.Sprintf("B(g(0), %s, e%d).", ab(i), i) }) + `
A(0).
A(S) -> A(f(S)).
A(S) -> M(f(S), a).
A(S) -> M(f(S), b).
M(S, X), B(g(0), X, Y) -> N(S, Y).
K(X), B(S, X, Y) -> BK(S, Y).`, then: []string{"B(g(0), a, e40).", "B(g(0), b, e41)."}},
	// K(X, Y) comes after M has bound both: a test, probed on X.
	{name: "every position fixed past the scan", src: repeat(18, func(i int) string { return fmt.Sprintf("K(%s, c%d).", ab(i), i) }) + `
A(0).
A(S) -> A(f(S)).
A(S) -> M(f(S), a, c0).
A(S) -> M(f(S), b, c0).
A(S) -> M(f(S), b, c3).
M(S, X, Y), K(X, Y) -> N(S, X, Y).`, then: []string{"K(b, c0)."}},
	// K is probed in the middle of the body. K(a, z) and L(z) arrive
	// together, and the cell derives Q(S, z) before it joins N: the match
	// with K's new atom is new with K as the delta, so the one with Q's must
	// leave K's bucket clipped at K's stamp, or it fires twice.
	{name: "probed before the delta", src: repeat(18, func(i int) string { return fmt.Sprintf("K(%s, c%d).", ab(i), i) }) + `
L(c0).
A(0).
A(S) -> A(f(S)).
A(S) -> M(f(S), a).
L(Y), A(S) -> Q(S, Y).
M(S, X), K(X, Y), Q(S, Y) -> N(S, Y).`, then: []string{"K(a, z).\nL(z)."}},
}

// repeat joins f(0), …, f(n-1), one to a line.
func repeat(n int, f func(i int) string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(f(i))
		b.WriteByte('\n')
	}
	return b.String()
}

// ab names the constant a for even i and b for odd.
func ab(i int) string { return string(rune('a' + i%2)) }

// sameAsFixpoint compares every state to depth SeedDepth+3 and the global
// facts with the depth-bounded semi-naive evaluator's, run two levels deeper
// over the same program and base facts.
func sameAsFixpoint(t *testing.T, when string, e *Engine, base []ast.Atom) {
	t.Helper()
	prog := *e.Prep.Program
	prog.Facts = append(append([]ast.Atom(nil), prog.Facts...), base...)
	depth := e.Prep.SeedDepth + 3
	ref, err := fixpoint.Eval(&prog, e.U, e.W, fixpoint.Options{MaxDepth: depth + 2, Seminaive: true})
	if err != nil {
		t.Fatalf("%s: fixpoint.Eval: %v", when, err)
	}
	tab := prog.Tab
	for _, tm := range termsTo(e, depth, 1500) {
		got, err := e.StateOf(tm)
		if err != nil {
			t.Fatalf("%s: StateOf: %v", when, err)
		}
		if want := ref.Store.Slice(tm, nil); got != want {
			t.Fatalf("%s: state of %s is %v, the fixpoint evaluator's %v", when, e.U.CompactString(tm, tab), e.W.StateAtoms(got), e.W.StateAtoms(want))
		}
	}
	g, w := sortedAtoms(e.Global()), sortedAtoms(ref.Store.Data())
	if len(g) != len(w) {
		t.Fatalf("%s: %d global facts, the fixpoint evaluator has %d", when, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: global facts differ from the fixpoint evaluator's", when)
		}
	}
}

// joinSteps builds c's tracked engine and oracle and calls check cold, then
// adds c's base facts one line of then after another, solving and sweeping
// the tracked engine after each and calling check with the base facts so
// far. It returns the tracked engine.
func joinSteps(t *testing.T, c joinCase, check func(when string, tracked, oracle *Engine, base []ast.Atom)) *Engine {
	t.Helper()
	tracked, oracle := enginePair(t, c.src)
	check("cold", tracked, oracle, nil)
	var base []ast.Atom
	for _, then := range c.then {
		more, err := parser.ParseFactsTab(tracked.Prep.Program.Tab, then)
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, more...)
		for _, e := range []*Engine{tracked, oracle} {
			for i := range more {
				args := make([]symbols.ConstID, len(more[i].Args))
				for k, d := range more[i].Args {
					args[k] = d.Const
				}
				if more[i].FT == nil {
					e.AddGlobalFact(more[i].Pred, args)
				} else if at, ok := subst.GroundFTerm(e.U, more[i].FT); ok {
					e.AddGroundFact(more[i].Pred, at, args)
				}
			}
		}
		if err := tracked.Solve(); err != nil {
			t.Fatalf("Solve: %v", err)
		}
		tracked.kept = 0 // sweep now, not when enough cells have died
		tracked.Sweep()
		check("after "+strings.ReplaceAll(strings.TrimSpace(then), "\n", " "), tracked, oracle, base)
	}
	return tracked
}

// TestCellJoins: the join plans and the deltas derive what the rules say.
// The tracked engine, the evaluate-everything oracle (same plans, full
// extents every time) and internal/fixpoint's semi-naive evaluator (its own
// matcher, textual order) agree on every joinCases program, cold and after
// each of the case's base facts.
func TestCellJoins(t *testing.T) {
	for _, c := range joinCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			joinSteps(t, c, func(when string, tracked, oracle *Engine, base []ast.Atom) {
				sameFixpoint(t, when, tracked, oracle)
				sameAsFixpoint(t, when, tracked, base)
				if n := tracked.Stats().CellEvals; when == "cold" && n <= tracked.Stats().Cells {
					t.Errorf("cold: %d evaluations of %d cells: no cell was evaluated twice", n, tracked.Stats().Cells)
				}
			})
		})
	}
}

// TestSiblingOfAnchor: what a push rule derives at f(t) from the child by g
// is no function of t's state where g(t) carries base facts of its own, so
// f(t) is an anchor wherever g(t) is — here from the start, and then along a
// fact's whole path.
func TestSiblingOfAnchor(t *testing.T) {
	tracked, _ := enginePair(t, `
K(c).
A(0).
P(g(0), c).
P(S, V) -> Y(S, V).
Y(g(S), V), K(V) -> X(f(S), V).`)
	sameAsFixpoint(t, "cold", tracked, nil)
	base, err := parser.ParseFactsTab(tracked.Prep.Program.Tab, "P(g(f(0)), c).")
	if err != nil {
		t.Fatal(err)
	}
	at, _ := subst.GroundFTerm(tracked.U, base[0].FT)
	tracked.AddGroundFact(base[0].Pred, at, []symbols.ConstID{base[0].Args[0].Const})
	sameAsFixpoint(t, "after P(g(f(0)), c).", tracked, base)
	tab := tracked.Prep.Program.Tab
	f, _ := tab.LookupFunc("f", 0)
	x, _ := tab.LookupPred("X", 1, true)
	c, _ := tab.LookupConst("c")
	ff0 := tracked.U.Apply(f, tracked.U.Apply(f, term.Zero))
	if !mustHasAt(t, tracked, x, ff0, []symbols.ConstID{c}) {
		t.Errorf("X(f(f(0)), c) does not follow from P(g(f(0)), c)")
	}
}
