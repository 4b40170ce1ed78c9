package core

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"funcdb/internal/ast"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// TestExtendTouchesDelta: a fact costs what it newly derives. The gate is a
// count, not a time: one depth-0 fact into each write_mix program evaluates
// at most twice the 64 cells it creates (once when they are created, once
// more to see that nothing further follows) — none at all in sub, where the
// fact lands in the anchor region — not every cell of the fixpoint for two
// rounds.
func TestExtendTouchesDelta(t *testing.T) {
	bounds := map[string]int{"cal": 128, "sub": 64, "rob": 128}
	for _, f := range writeFamilies {
		db := openPublished(t, f.src)
		before := db.Engine.Stats()
		extendPublish(t, db, f.fact(0))
		after := db.Engine.Stats()
		evals := after.CellEvals - before.CellEvals
		t.Logf("%s: %s creates %d cells (of %d), evaluates %d", f.name, f.fact(0), after.Cells-before.Cells, after.Cells, evals)
		if evals > bounds[f.name] {
			t.Errorf("%s: one fact evaluated %d cells, want at most %d", f.name, evals, bounds[f.name])
		}
	}
}

// TestPublishBytes: what one republish allocates, as counts — the mean of a
// few runs of BenchmarkPublish's body, read off the allocator's own counters
// the way testing.B does (a timed testing.Benchmark would spend its second on
// the opens). The bounds are the figures measured when the stores' frozen
// views became lengths (EXPERIMENTS.md A23) plus 20 %; with the interning
// maps, the source program and the global set copied per publish cal
// allocated 56 864 bytes in 663 allocations, and with a copy of the successor
// table per consumer before that robdeep 991 KB in 691.
func TestPublishBytes(t *testing.T) {
	bounds := map[string]struct{ bytes, allocs uint64 }{
		// measured: cal 27 136 / 551, sub 64 512 / 814, rob 67 120 / 181, robdeep 515 926 / 244
		"cal": {32_600, 661}, "sub": {77_400, 977}, "rob": {80_500, 217}, "robdeep": {619_100, 293},
	}
	const runs = 5
	for _, c := range publishCases() {
		var bytes, allocs uint64
		for i := 0; i < runs; i++ {
			db := openPublished(t, c.src)
			if err := db.Extend(c.fact); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := db.Snapshot(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bytes += after.TotalAlloc - before.TotalAlloc
			allocs += after.Mallocs - before.Mallocs
		}
		bytes, allocs = bytes/runs, allocs/runs
		t.Logf("%s: one republish allocates %d bytes in %d allocations", c.name, bytes, allocs)
		if max := bounds[c.name]; bytes > max.bytes || allocs > max.allocs {
			t.Errorf("%s: one republish allocates %d bytes in %d allocations, want at most %d in %d",
				c.name, bytes, allocs, max.bytes, max.allocs)
		}
	}
}

// askSame compares two snapshots on yes-no queries.
func askSame(t *testing.T, when string, got, want *Snapshot, queries []string) {
	t.Helper()
	ctx := context.Background()
	for _, q := range queries {
		g, gerr := got.Ask(ctx, q)
		w, werr := want.Ask(ctx, q)
		if (gerr == nil) != (werr == nil) || g != w {
			t.Errorf("%s: Ask(%s) = %v, %v; recompiled %v, %v", when, q, g, gerr, w, werr)
		}
	}
}

// answerSet enumerates an open query the way the daemon renders it.
func answerSet(t *testing.T, s *Snapshot, q string, depth int) []string {
	t.Helper()
	ans, err := s.Answers(context.Background(), q)
	if err != nil {
		t.Fatalf("Answers(%s): %v", q, err)
	}
	var out []string
	err = ans.Enumerate(depth, func(ft term.Term, cs []symbols.ConstID) bool {
		row := ""
		if ft != term.None {
			row = ans.CompactTermString(ft)
		}
		for _, c := range cs {
			row += "|" + ans.ConstName(c)
		}
		out = append(out, row)
		return len(out) < 5000
	})
	if err != nil {
		t.Fatalf("Enumerate(%s): %v", q, err)
	}
	sort.Strings(out)
	return out
}

func answersSame(t *testing.T, when string, got, want *Snapshot, q string, depth int) {
	t.Helper()
	g, w := answerSet(t, got, q, depth), answerSet(t, want, q, depth)
	if strings.Join(g, "\n") != strings.Join(w, "\n") {
		t.Errorf("%s: Answers(%s, depth %d): %d tuples, recompiled %d", when, q, depth, len(g), len(w))
	}
}

// TestExtendHistoryStaysFlat: the cells of the fixpoints a database has
// passed through are not kept. 200 one-fact Extends into Calendar(64) — the
// first 62 each move every day's state (the students of day 0 stay a proper
// prefix, so the period stays 64), the rest are already there — leave no more
// than twice the cells a fresh compile of the same text makes, the 200th
// evaluates no more cells than the 2nd, and the database keeps answering as
// the recompiled one. The same holds when every tenth fact lands a day deeper
// than any before it (with the student the round-robin brings there from day
// 0, so the period stays 64): the anchor region grows to day 19 on the
// monotone path, without a recompile, and a fact still costs one period of
// cells.
func TestExtendHistoryStaysFlat(t *testing.T) {
	for _, v := range []struct {
		name string
		day  func(i int) int
	}{
		{"root", func(int) int { return 0 }},
		{"deepening", func(i int) int { return i / 10 }},
	} {
		v := v
		t.Run(v.name, func(t *testing.T) {
			db := openPublished(t, writeFamilies[0].src)
			eng := db.Engine
			evals := make([]int, 0, 200)
			for i := 0; i < 200; i++ {
				before := db.Engine.Stats().CellEvals
				extendPublish(t, db, fmt.Sprintf("Meets(%d, s%d).", v.day(i), (v.day(i)+1+i%62)%64))
				evals = append(evals, db.Engine.Stats().CellEvals-before)
				if i%20 != 19 {
					continue
				}
				got, _ := db.Snapshot()
				want := openPublished(t, db.SourceText())
				ref, _ := want.Snapshot()
				when := fmt.Sprintf("after %d facts", i+1)
				var asks []string
				for d := 0; d < 70; d += 3 {
					asks = append(asks, fmt.Sprintf("?- Meets(%d, s%d).", d, (d+i)%64), fmt.Sprintf("?- Meets(%d, s%d).", d, (5*d+1)%64))
				}
				askSame(t, when, got, ref, asks)
				answersSame(t, when, got, ref, "?- Meets(T, X).", 3)
				answersSame(t, when, got, ref, "?- Meets(T+1, s9).", 70)
			}
			if db.Engine != eng {
				t.Errorf("the history recompiled the program")
			}
			if evals[199] > evals[1] {
				t.Errorf("the 200th fact evaluated %d cells, the 2nd %d", evals[199], evals[1])
			}
			fresh, err := openPublished(t, db.SourceText()).Stats()
			if err != nil {
				t.Fatal(err)
			}
			st, err := db.Stats()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("cells after 200 facts: %d, fresh compile: %d; evaluations per fact: 2nd %d, 62nd %d, 200th %d",
				st.Engine.Cells, fresh.Engine.Cells, evals[1], evals[61], evals[199])
			if st.Engine.Cells > 2*fresh.Engine.Cells {
				t.Errorf("%d cells after 200 facts, a fresh compile of the same text makes %d", st.Engine.Cells, fresh.Engine.Cells)
			}
		})
	}
}

// corpusPrograms reads the acceptance corpus with its yes-no expectations
// (the "%! true ?- Q." lines; see corpus_test.go at the root).
func corpusPrograms(t *testing.T) map[string]struct {
	src     string
	queries []string
} {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.fdb"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	out := make(map[string]struct {
		src     string
		queries []string
	})
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		c := out[filepath.Base(p)]
		c.src = string(raw)
		sc := bufio.NewScanner(strings.NewReader(c.src))
		for sc.Scan() {
			if d, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "%!"); ok {
				if i := strings.Index(d, "?-"); i >= 0 {
					c.queries = append(c.queries, strings.TrimSpace(d[i:]))
				}
			}
		}
		out[filepath.Base(p)] = c
	}
	return out
}

// randomFact renders a ground fact over the database's own predicates,
// constants and function symbols: at the root, at the program's ground depth
// (a branch that may have been only cells so far), up to four levels deeper
// (which raises the ground depth; only while the terms Algorithm Q then
// examines, which multiply by the alphabet with every level, stay under a few
// thousand), global, or the previous one again.
func randomFact(db *Database, rng *rand.Rand, prev string) (kind, text string) {
	tab := db.Tab()
	var fn, dt []symbols.PredID
	for p := range db.Prep.OriginalPreds {
		if tab.PredInfo(p).Functional {
			fn = append(fn, p)
		} else {
			dt = append(dt, p)
		}
	}
	sort.Slice(fn, func(i, j int) bool { return fn[i] < fn[j] })
	sort.Slice(dt, func(i, j int) bool { return dt[i] < dt[j] })
	consts := db.Source.ConstsUsed()
	funcs := db.Source.FuncsUsed()
	deeper := db.Prep.C + 1 + rng.Intn(4)
	for ; deeper > db.Prep.C; deeper-- {
		if math.Pow(float64(len(db.Prep.Funcs)), float64(deeper+1)) <= 5000 {
			break
		}
	}
	kinds := []string{"duplicate"}
	if len(fn) > 0 {
		kinds = append(kinds, "shallow", "deep")
		if deeper > db.Prep.C {
			kinds = append(kinds, "deeper")
		}
	}
	if len(dt) > 0 {
		kinds = append(kinds, "global")
	}
	kind = kinds[rng.Intn(len(kinds))]
	if kind == "duplicate" && prev == "" {
		kind = kinds[len(kinds)-1]
	}
	args := func(n int) ([]ast.DTerm, bool) {
		if n > 0 && len(consts) == 0 {
			return nil, false
		}
		out := make([]ast.DTerm, n)
		for i := range out {
			out[i] = ast.C(consts[rng.Intn(len(consts))])
		}
		return out, true
	}
	a := ast.Atom{}
	switch kind {
	case "duplicate":
		return kind, prev
	case "global":
		a.Pred = dt[rng.Intn(len(dt))]
	default:
		a.Pred = fn[rng.Intn(len(fn))]
		a.FT = ast.FZero()
		depth := map[string]int{"shallow": 0, "deep": db.Prep.C, "deeper": deeper}[kind]
		if len(funcs) == 0 {
			depth = 0
		}
		for i := 0; i < depth; i++ {
			f := funcs[rng.Intn(len(funcs))]
			fargs, ok := args(tab.FuncInfo(f).DataArity)
			if !ok {
				return kind, prev
			}
			a.FT = a.FT.Apply(f, fargs...)
		}
	}
	var ok bool
	if a.Args, ok = args(tab.PredInfo(a.Pred).Arity); !ok {
		return kind, prev
	}
	return kind, a.Format(tab) + "."
}

// sameSpec compares two graph specifications of one program compiled over
// differently numbered symbols: the ground depth and the sizes always, and the whole dump (slices
// sorted by name) when the two alphabets list the same names in the same
// order, which fixes the precedence order the representatives are chosen by.
func sameSpec(t *testing.T, when string, got, want *Database) {
	t.Helper()
	dump := func(db *Database) (sizes, alphabet, full string) {
		sp, err := db.Graph()
		if err != nil {
			t.Fatalf("%s: Graph: %v", when, err)
		}
		tab := db.Tab()
		var b strings.Builder
		for _, rep := range sp.Reps {
			var atoms []string
			for _, a := range sp.Slice(rep) {
				atoms = append(atoms, sp.FormatAtom(a, rep))
			}
			sort.Strings(atoms)
			fmt.Fprintf(&b, "L[%s] = %v\n", sp.U.CompactString(rep, tab), atoms)
			for _, f := range sp.Alphabet {
				next, _ := sp.Successor(rep, f)
				fmt.Fprintf(&b, "  %s -> %s\n", tab.FuncName(f), sp.U.CompactString(next, tab))
			}
		}
		for _, m := range sp.Merges {
			fmt.Fprintf(&b, "%s = %s\n", sp.U.CompactString(m.Potential, tab), sp.U.CompactString(m.Rep, tab))
		}
		for _, f := range sp.Alphabet {
			alphabet += tab.FuncName(f) + " "
		}
		sizes = fmt.Sprintf("c %d, seed %d, %d reps, %d active, %d potentials, %d merges",
			db.Prep.C, sp.SeedDepth, len(sp.Reps), len(sp.Active), len(sp.Potentials), len(sp.Merges))
		return sizes, alphabet, b.String()
	}
	gs, ga, gf := dump(got)
	ws, wa, wf := dump(want)
	if gs != ws {
		t.Errorf("%s: specification has %s; recompiled %s", when, gs, ws)
	}
	if ga == wa && gf != wf {
		t.Errorf("%s: specification differs from the recompiled one:\n%s\nrecompiled:\n%s", when, gf, wf)
	}
}

// TestExtendMatchesRecompile is the metamorphic law of the write path: after
// every step of a seeded random sequence of facts the database answers, and
// is specified, exactly as the text it would be checkpointed as compiles.
// The programs are the acceptance corpus with its own queries and the three
// write_mix families with the benchmark's ground and open query shapes.
func TestExtendMatchesRecompile(t *testing.T) {
	type open struct {
		q     string
		depth int
	}
	type program struct {
		src   string
		asks  []string
		opens []open
	}
	programs := make(map[string]program)
	for name, c := range corpusPrograms(t) {
		programs[name] = program{src: c.src, asks: c.queries}
	}
	var cal, sub, rob program
	cal.src, sub.src, rob.src = writeFamilies[0].src, writeFamilies[1].src, writeFamilies[2].src
	for d := 0; d < 70; d += 7 {
		for _, k := range []int{d % 64, (d + 5) % 64, 17} {
			cal.asks = append(cal.asks, fmt.Sprintf("?- Meets(%d, s%d).", d, k))
		}
	}
	cal.opens = []open{{"?- Meets(T, X).", 16}, {"?- Meets(T, s17).", 70}, {"?- Meets(T+1, s17).", 70}}
	for _, l := range []string{"0", "ext(0, e1)", "ext(ext(0, e1), e4)", "ext(ext(ext(0, e6), e0), e6)"} {
		for _, e := range []int{0, 1, 4, 6} {
			sub.asks = append(sub.asks, fmt.Sprintf("?- Member(%s, e%d).", l, e))
		}
	}
	sub.opens = []open{{"?- Member(S, e1).", 2}, {"?- Member(ext(S, e1), e3).", 2}}
	for _, p := range []string{"0", "move(0, p0, p1)", "move(0, p3, p4)", "move(move(0, p0, p4), p4, p5)", "move(move(0, p2, p3), p3, p4)"} {
		for _, e := range []int{0, 1, 4, 5} {
			rob.asks = append(rob.asks, fmt.Sprintf("?- At(%s, p%d).", p, e))
		}
	}
	rob.opens = []open{{"?- At(S, p2).", 2}, {"?- At(move(S, p1, p2), p2).", 2}}
	programs["cal"], programs["sub"], programs["rob"] = cal, sub, rob

	for name, p := range programs {
		name, p := name, p
		t.Run(name, func(t *testing.T) {
			db := openPublished(t, p.src)
			rng := rand.New(rand.NewSource(3))
			prev := ""
			for step := 0; step < 10; step++ {
				kind, fact := randomFact(db, rng, prev)
				if fact == "" {
					return
				}
				prev = fact
				when := fmt.Sprintf("step %d (%s) %s", step, kind, fact)
				eng := db.Engine
				if err := db.Extend(fact); err != nil {
					t.Fatalf("%s: Extend: %v", when, err)
				}
				t.Logf("%s: recompiled %v", when, db.Engine != eng)
				got, err := db.Snapshot()
				if err != nil {
					t.Fatalf("%s: Snapshot: %v", when, err)
				}
				want := openPublished(t, db.SourceText())
				ref, _ := want.Snapshot()
				askSame(t, when, got, ref, append(p.asks, "?- "+fact))
				for _, o := range p.opens {
					answersSame(t, when, got, ref, o.q, o.depth)
				}
				sameSpec(t, when, db, want)
			}
		})
	}
}

// TestExtendFrontEnd pins what the facts front end decides without walking
// the program: what is refused, what forces a recompile (a deeper fact does
// not: the engine stays in place and the ground depth follows the batch, but
// only when the whole batch took the monotone path), and that a refused or
// failed Extend leaves the database as it was.
func TestExtendFrontEnd(t *testing.T) {
	const base = "@functional A/1.\nA(f(0)).\nK(a).\nA(S) -> A(g(S)).\n"
	ctx := context.Background()
	for _, bad := range []struct{ facts, want string }{
		{"A(S) -> A(h(S)).", "core: Extend takes facts only"},
		{"?- A(0).", "core: Extend takes facts only"},
		{"A(X).", "line 1: fact A(X) is not ground"},
		{"K(b).\nA(a).", "2:3: constant a cannot appear in a functional position"},
		{"A(0", "1:4: expected ')', found end of input"},
	} {
		db := openPublished(t, base)
		text, facts, stats := db.SourceText(), len(db.Source.Facts), db.Engine.Stats()
		err := db.Extend(bad.facts)
		if err == nil || err.Error() != bad.want {
			t.Errorf("Extend(%q) = %v, want %q", bad.facts, err, bad.want)
		}
		if db.SourceText() != text || len(db.Source.Facts) != facts || db.Engine.Stats() != stats {
			t.Errorf("Extend(%q) failed and changed the database", bad.facts)
		}
	}
	const lists = "P(a).\nP(X) -> Member(ext(0, X), X).\nP(Y), Member(S, X) -> Member(ext(S, Y), X).\n"
	for _, c := range []struct {
		base, facts string
		recompile   bool
		holds       string
	}{
		{base, "A(g(0)).", false, "?- A(g(g(0)))."},
		{base, "A(0). K(b).", false, "?- K(b)."},
		{base, "A(g(g(0))).", false, "?- A(g(g(g(0))))."},                                           // deeper than the program
		{base, "A(h(0)).", true, "?- A(g(h(0)))."},                                                  // a function symbol outside the alphabet
		{base, "@functional B/1.\nB(0).", true, "?- B(0)."},                                         // a new functional predicate
		{base, "Other(a).", true, "?- Other(a)."},                                                   // a new predicate
		{base, "@functional B/2.\nB(f(0), b).", true, "?- K(a)."},                                   // both, and a new constant
		{base, "A(g(g(g(0)))).\nOther(a).", true, "?- A(g(g(g(g(0)))))."},                           // deeper, and a new predicate
		{base, "A(g(g(0))).\nA(h(0)).", true, "?- A(g(g(g(0))))."},                                  // deeper, and refused by the alphabet
		{lists, "Member(ext(ext(0, a), a), a).", false, "?- Member(ext(ext(ext(0, a), a), a), a)."}, // deeper, under a mixed symbol
		{lists, "P(b).", true, "?- Member(ext(0, b), b)."},                                          // a new constant under a mixed symbol
	} {
		db := openPublished(t, c.base)
		eng := db.Engine
		if err := db.Extend(c.facts); err != nil {
			t.Fatalf("Extend(%q): %v", c.facts, err)
		}
		if (db.Engine != eng) != c.recompile {
			t.Errorf("Extend(%q): recompiled = %v, want %v", c.facts, db.Engine != eng, c.recompile)
		}
		ref := openPublished(t, db.SourceText())
		got, _ := db.Snapshot()
		want, _ := ref.Snapshot()
		askSame(t, c.facts, got, want, []string{c.holds, "?- A(f(0)).", "?- A(g(f(0))).", "?- A(0).", "?- K(b).", "?- Member(ext(0, a), a)."})
		if yes, err := got.Ask(ctx, c.holds); err != nil || !yes {
			t.Errorf("after Extend(%q): Ask(%s) = %v, %v", c.facts, c.holds, yes, err)
		}
		sameSpec(t, c.facts, db, ref)
	}
}

// TestExtendConcurrentReaders: one writer posts facts and republishes while
// four readers hold snapshots from along the way and keep querying them; each
// snapshot answers as of its publication throughout. Run under -race.
func TestExtendConcurrentReaders(t *testing.T) {
	db := openPublished(t, writeFamilies[0].src)
	type held struct {
		snap *Snapshot
		upTo int // facts 1..upTo had been posted
	}
	ch := make(chan held, 64)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var mine []held
			for h := range ch {
				mine = append(mine, h)
				for _, old := range mine {
					for _, k := range []int{old.upTo, old.upTo%31 + 1, 31} {
						q := fmt.Sprintf("?- Meets(64, s%d).", 2*k)
						yes, err := old.snap.Ask(ctx, q)
						if err != nil || yes != (k <= old.upTo) {
							t.Errorf("snapshot after %d facts: Ask(%s) = %v, %v", old.upTo, q, yes, err)
						}
					}
				}
			}
		}()
	}
	// Fact k puts s(2k) on day 0, and with it on day 64: Meets(64, s(2k))
	// holds from then on.
	for k := 1; k <= 31; k++ {
		extendPublish(t, db, fmt.Sprintf("Meets(0, s%d).", 2*k))
		s, _ := db.Snapshot()
		for r := 0; r < 4; r++ {
			ch <- held{s, k}
		}
	}
	close(ch)
	wg.Wait()
}

// TestColdSolveCounts: a cold compile costs what it derives. Counts, not
// times: the rule firings, cell evaluations and facts derived of the cold
// solve of each write family, as measured when rules became join plans
// evaluated semi-naively (EXPERIMENTS.md A22). The evaluations and the facts
// are the fixpoint's and were the same before; the firings were 12 754 for
// sub, every evaluation of a cell re-joining all it had joined before.
func TestColdSolveCounts(t *testing.T) {
	want := map[string]struct{ firings, evals, derived int }{
		"cal": {64, 128, 64}, "sub": {6286, 1778, 3584}, "rob": {9, 585, 9},
	}
	for _, f := range writeFamilies {
		st := openPublished(t, f.src).Engine.Stats()
		t.Logf("%s: %d rule firings, %d cell evaluations, %d facts derived, %d cells", f.name, st.RuleFirings, st.CellEvals, st.FactsDerived, st.Cells)
		w := want[f.name]
		if st.RuleFirings != w.firings || st.CellEvals != w.evals || st.FactsDerived != w.derived {
			t.Errorf("%s: cold solve: %d rule firings, %d cell evaluations, %d facts derived; want %d, %d, %d",
				f.name, st.RuleFirings, st.CellEvals, st.FactsDerived, w.firings, w.evals, w.derived)
		}
	}
}
