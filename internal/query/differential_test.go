package query_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"funcdb/internal/ast"
	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/engine"
	"funcdb/internal/query"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// A program the enumerator is tested on, with the enumeration depths to
// cover.
type program struct {
	name, src string
	maxDepth  int
	// extra are query texts on top of the generated ones.
	extra []string
}

// programs returns the acceptance corpus, the datagen families at small
// sizes, and the three databases of the benchmark's answers workload at
// their benchmark sizes with every text shape of its pool.
func programs(t *testing.T) []program {
	t.Helper()
	var out []program
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.fdb"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, program{name: filepath.Base(p), src: string(src), maxDepth: 4})
	}
	out = append(out,
		program{name: "calendar5", src: datagen.CalendarSrc(5), maxDepth: 12},
		program{name: "chain3", src: datagen.ChainSrc(3), maxDepth: 8},
		program{name: "subsets3", src: datagen.SubsetsSrc(3), maxDepth: 4},
		program{name: "robot4", src: datagen.RobotSrc(4), maxDepth: 4},
	)
	for seed := int64(1); seed <= 3; seed++ {
		out = append(out,
			program{name: fmt.Sprint("automaton/", seed), src: datagen.RandomAutomatonSrc(4, 2, seed), maxDepth: 4},
			program{name: fmt.Sprint("temporal/", seed), src: datagen.RandomTemporalSrc(3, seed), maxDepth: 8},
			program{name: fmt.Sprint("bidi/", seed), src: datagen.RandomBidiSrc(3, 2, seed), maxDepth: 4},
		)
	}
	cal := program{name: "bench/cal", src: datagen.CalendarSrc(64), maxDepth: 70, extra: []string{"?- Meets(T, X)."}}
	for _, k := range []int{0, 17, 63} {
		cal.extra = append(cal.extra, fmt.Sprintf("?- Meets(T, s%d).", k), fmt.Sprintf("?- Meets(T+1, s%d).", k))
	}
	sub := program{name: "bench/sub", src: datagen.SubsetsSrc(6), maxDepth: 4}
	for k := 0; k < 6; k++ {
		sub.extra = append(sub.extra, fmt.Sprintf("?- Member(S, e%d).", k),
			fmt.Sprintf("?- Member(ext(S, e%d), e%d).", (k+2)%6, k), fmt.Sprintf("?- Member(ext(S, e%d), e%d).", k, k))
	}
	rob := program{name: "bench/rob", src: datagen.RobotSrc(8), maxDepth: 4}
	for k := 0; k < 8; k++ {
		rob.extra = append(rob.extra, fmt.Sprintf("?- At(S, p%d).", k))
	}
	// Finite answers, which the families above have few of.
	finite := program{name: "finite", maxDepth: 5, src: `
@functional Hot/1.
Hot(f(g(0))). Hot(g(g(g(0)))). Tag(f(0), a). Tag(g(f(0)), b).
Hot(f(S)) -> Warm(S).
`}
	return append(out, cal, sub, rob, finite)
}

// openQueries generates open query texts from a database's own symbols: for
// each predicate — the normalisation helpers included, which only the
// representatives preserve, not the minimised classes — the fully open
// query, one with a constant, the existential form, a non-uniform one per
// function symbol, and joins of functional predicates on the functional
// variable.
func openQueries(db *core.Database) []string {
	tab := db.Tab()
	var consts []string
	for c := 0; c < tab.NumConsts() && c < 2; c++ {
		consts = append(consts, tab.ConstName(symbols.ConstID(c)))
	}
	vars := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprint(prefix, i)
		}
		return out
	}
	atom := func(pred string, ft string, args []string) string {
		if ft != "" {
			args = append([]string{ft}, args...)
		}
		if len(args) == 0 {
			return pred
		}
		return pred + "(" + strings.Join(args, ", ") + ")"
	}
	var fts []string // non-uniform functional terms over S
	for f := 0; f < tab.NumFuncs() && len(fts) < 3; f++ {
		info := tab.FuncInfo(symbols.FuncID(f))
		if info.Derived || (info.DataArity > 0 && len(consts) == 0) {
			continue
		}
		if info.Name == term.SuccName {
			fts = append(fts, "S+1", "S+2")
			continue
		}
		args := []string{"S"}
		for i := 0; i < info.DataArity; i++ {
			args = append(args, consts[i%len(consts)])
		}
		fts = append(fts, info.Name+"("+strings.Join(args, ", ")+")")
	}
	var out, functional []string
	for p := 0; p < tab.NumPreds(); p++ {
		info := tab.PredInfo(symbols.PredID(p))
		if !info.Functional {
			if info.Arity > 0 {
				out = append(out, "?- "+atom(info.Name, "", vars("X", info.Arity))+".")
			}
			continue
		}
		open := atom(info.Name, "S", vars("X", info.Arity))
		functional = append(functional, open)
		out = append(out, "?- "+open+".")
		if info.Arity > 0 {
			out = append(out, "?- "+atom(info.Name, "_S", vars("X", info.Arity))+".")
			for _, c := range consts {
				out = append(out, "?- "+atom(info.Name, "S", append([]string{c}, vars("X", info.Arity-1)...))+".")
			}
		}
		for _, ft := range fts {
			out = append(out, "?- "+atom(info.Name, ft, vars("X", info.Arity))+".")
		}
	}
	for i := 0; i+1 < len(functional) && i < 3; i++ {
		other := strings.ReplaceAll(functional[i+1], "X", "Y")
		out = append(out, "?- "+functional[i]+", "+other+".")
	}
	return out
}

// rows enumerates through enum and renders every tuple in order, stopping
// after limit of them (0 = no limit); truncated reports that one more was
// offered.
func rows(t *testing.T, ans *query.Answers, enum func(context.Context, int, func(term.Term, []symbols.ConstID) bool) error, depth, limit int) (out []string, truncated bool) {
	t.Helper()
	err := enum(context.Background(), depth, func(ft term.Term, args []symbols.ConstID) bool {
		if limit > 0 && len(out) >= limit {
			truncated = true
			return false
		}
		row := ""
		if ft != term.None {
			row = ans.CompactTermString(ft)
		}
		for _, c := range args {
			row += "|" + ans.ConstName(c)
		}
		out = append(out, row)
		return true
	})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	return out, truncated
}

// forEachAnswer opens every program and calls f for every open query on it
// that evaluates, with a handle from the snapshot's plan.
func forEachAnswer(t *testing.T, f func(p program, db *core.Database, text string, ans *query.Answers)) {
	t.Helper()
	ctx := context.Background()
	for _, p := range programs(t) {
		db, err := core.Open(p.src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		n := 0
		for _, text := range append(openQueries(db), p.extra...) {
			plan, err := snap.Prepare(ctx, text)
			if err != nil {
				t.Fatalf("%s: %s: %v", p.name, text, err)
			}
			if plan.Ground() {
				continue
			}
			ans, err := plan.Answers(ctx)
			if err != nil {
				// A generated query may be one the program cannot take (a join
				// that preparation refuses, say); the texts that matter are
				// checked below to have evaluated.
				continue
			}
			n++
			f(p, db, text, ans)
		}
		if n < len(p.extra) || n == 0 {
			t.Errorf("%s: only %d open queries evaluated", p.name, n)
		}
	}
}

// referenceBudget caps the terms the exhaustive reference may intern for one
// (query, depth): it is the alphabet^depth walk this PR removed.
const referenceBudget = 400_000

// TestEnumerateMatchesExhaustiveReference: the DFA-walking enumerator yields
// exactly the sequence of the exhaustive term-tree walk it replaced — same
// tuples, same order — and under a limit stops at the same tuple with the
// same truncated verdict, for every depth and limit.
func TestEnumerateMatchesExhaustiveReference(t *testing.T) {
	compared := 0
	forEachAnswer(t, func(p program, _ *core.Database, text string, ans *query.Answers) {
		for depth := 0; depth <= p.maxDepth; depth++ {
			if math.Pow(float64(ans.AlphabetSize()), float64(depth)) > referenceBudget {
				break
			}
			want, _ := rows(t, ans, ans.EnumerateExhaustive, depth, 0)
			got, _ := rows(t, ans, ans.EnumerateContext, depth, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s to depth %d:\n got %v\nwant %v", p.name, text, depth, got, want)
			}
			compared++
			for _, limit := range []int{1, 7, 1000} {
				got, truncated := rows(t, ans, ans.EnumerateContext, depth, limit)
				cut := min(limit, len(want))
				if !reflect.DeepEqual(got, want[:cut:cut]) || truncated != (len(want) > limit) {
					t.Fatalf("%s: %s to depth %d, limit %d: %d tuples, truncated %v; reference has %d\n got %v\nwant %v",
						p.name, text, depth, limit, len(got), truncated, len(want), got, want[:cut])
				}
			}
		}
	})
	if compared < 2000 {
		t.Errorf("only %d (query, depth) pairs compared", compared)
	}
}

// TestIncrementalMatchesRecomputeOnSnapshots is Theorem 5.1 on generated
// programs: for a uniform query the specification shared on the plan (the
// per-slice evaluation over the snapshot's own successor table) denotes the
// set a from-scratch Recompute of the enlarged program denotes.
func TestIncrementalMatchesRecomputeOnSnapshots(t *testing.T) {
	compared := 0
	forEachAnswer(t, func(p program, _ *core.Database, text string, ans *query.Answers) {
		// A second database: Recompute grows the table of the program it is
		// given.
		db, err := core.Open(p.src, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		q, err := db.ParseQuery(text)
		if err != nil {
			t.Fatal(err)
		}
		if !query.IsUniform(q) {
			return
		}
		// Recompute starts from the program as written, which does not
		// define the helper predicates normalisation introduces.
		original := make(map[symbols.PredID]bool)
		db.Source.Atoms(func(a *ast.Atom) { original[a.Pred] = true })
		for i := range q.Atoms {
			if !original[q.Atoms[i].Pred] {
				return
			}
		}
		rec, err := query.Recompute(db.Source, q, engine.Options{}, specgraph.Options{})
		if err != nil {
			t.Fatalf("%s: Recompute(%s): %v", p.name, text, err)
		}
		depth := min(p.maxDepth, 3)
		for math.Pow(float64(rec.AlphabetSize()), float64(depth)) > referenceBudget {
			depth--
		}
		got, _ := rows(t, ans, ans.EnumerateContext, depth, 0)
		want, _ := rows(t, rec, rec.EnumerateContext, depth, 0)
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s to depth %d:\nincremental %v\n  recompute %v", p.name, text, depth, got, want)
		}
		compared++
	})
	if compared < 100 {
		t.Errorf("only %d uniform queries compared", compared)
	}
}

// TestFiniteAnswerHasNothingPastItsBound is the relative-safety check on the
// specification's own finiteness verdict: when no cycle is reachable among
// the states an answer can still be reached from, the answer is finite,
// enumerating to the longest such path yields all of it — nothing is added
// one level, or ten, further down — and one level short of it misses
// something.
func TestFiniteAnswerHasNothingPastItsBound(t *testing.T) {
	finite, infinite := 0, 0
	forEachAnswer(t, func(p program, _ *core.Database, text string, ans *query.Answers) {
		bound, ok := ans.LongestLivePath()
		if !ok {
			infinite++
			// A live cycle pumps: some answer lies deeper than the number of
			// states, and within twice that. (A dense answer is cut short;
			// it is plainly not bounded by anything this small.)
			n := ans.NumStates()
			shallow, truncated := rows(t, ans, ans.EnumerateContext, n, 5000)
			if truncated {
				return
			}
			if deep, _ := rows(t, ans, ans.EnumerateContext, 2*n, 5000); len(deep) <= len(shallow) {
				t.Errorf("%s: %s reported infinite but has %d tuples to depth %d and %d to depth %d",
					p.name, text, len(shallow), n, len(deep), 2*n)
			}
			return
		}
		finite++
		if bound > 12 {
			t.Fatalf("%s: %s: bound %d, too deep for this test", p.name, text, bound)
		}
		at, _ := rows(t, ans, ans.EnumerateContext, bound, 0)
		for _, past := range []int{1, 10} {
			if more, _ := rows(t, ans, ans.EnumerateContext, bound+past, 0); len(more) != len(at) {
				t.Errorf("%s: %s: finite with bound %d (%d tuples), yet depth %d has %d",
					p.name, text, bound, len(at), bound+past, len(more))
			}
		}
		if bound >= 0 == ans.IsEmpty() {
			t.Errorf("%s: %s: bound %d, empty %v", p.name, text, bound, ans.IsEmpty())
		}
		if bound > 0 {
			if fewer, _ := rows(t, ans, ans.EnumerateContext, bound-1, 0); len(fewer) >= len(at) {
				t.Errorf("%s: %s: bound %d is not tight: %d tuples one level up, %d at it", p.name, text, bound, len(fewer), len(at))
			}
		}
	})
	if finite < 20 || infinite < 20 {
		t.Errorf("%d finite and %d infinite answers: the test lost one of its sides", finite, infinite)
	}
}

// TestDenseEnumerationIsCutOffAtItsDeadline: nearly every one of the 10^12
// lists of depth twelve over ten elements contains e1, so this enumeration
// is exponential whatever the enumerator does. It looks at its context every
// thousand steps, not once per level: a 20 ms deadline ends it within a few
// more, holding only what it had visited.
func TestDenseEnumerationIsCutOffAtItsDeadline(t *testing.T) {
	db, err := core.Open(datagen.SubsetsSrc(10), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := db.Answers(context.Background(), "?- Member(S, e1).")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	n := 0
	err = ans.EnumerateContext(ctx, 12, func(term.Term, []symbols.ConstID) bool { n++; return true })
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("enumeration ended with %v after %v and %d tuples, want the deadline's error", err, took, n)
	}
	if took > 80*time.Millisecond {
		t.Errorf("a 20ms deadline was noticed after %v", took)
	}
	if n == 0 {
		t.Error("nothing was yielded before the deadline")
	}
}
