package query

import (
	"context"
	"strings"
	"testing"

	"funcdb/internal/ast"
	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

const listsSrc = `
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`

// buildSpec returns the specification of src and the program it was built
// from, which the specification does not keep.
func buildSpec(t *testing.T, src string) (*specgraph.Spec, *ast.Program) {
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
	sp, err := specgraph.Build(eng, specgraph.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sp, prog
}

// TestPaperIncrementalQuery reproduces the section 5 example: the answer to
// ?- Member(S, a) over the list program has the incremental specification
// QUERY(a), QUERY(ab) with the successor mappings unchanged.
func TestPaperIncrementalQuery(t *testing.T) {
	sp, prog := buildSpec(t, listsSrc)
	q, err := parser.ParseQuery(prog, `?- Member(S, a).`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if !IsUniform(q) {
		t.Fatalf("Member(S, a) is uniform")
	}
	ans, err := Incremental(sp, q)
	if err != nil {
		t.Fatalf("Incremental: %v", err)
	}
	tab := prog.Tab
	extA, _ := tab.LookupFunc("ext'a", 0)
	extB, _ := tab.LookupFunc("ext'b", 0)
	a := []symbols.FuncID{extA}
	b := []symbols.FuncID{extB}
	ab := []symbols.FuncID{extA, extB}

	if len(ans.TuplesAt(a)) != 1 || len(ans.TuplesAt(ab)) != 1 {
		t.Errorf("QUERY(a) and QUERY(ab) expected:\n%s", ans.Dump())
	}
	if len(ans.TuplesAt(b)) != 0 || len(ans.TuplesAt(nil)) != 0 {
		t.Errorf("no QUERY tuples expected at b or 0:\n%s", ans.Dump())
	}
	// Membership of deep answers: the list bba contains a; bb does not.
	bba := []symbols.FuncID{extB, extB, extA}
	bb := []symbols.FuncID{extB, extB}
	if ok, _ := ans.Contains(bba, nil); !ok {
		t.Errorf("bba should be an answer")
	}
	if ok, _ := ans.Contains(bb, nil); ok {
		t.Errorf("bb should not be an answer")
	}
	dump := ans.Dump()
	if !strings.Contains(dump, "QUERY(ext'a)") || !strings.Contains(dump, "QUERY(ext'a.ext'b)") {
		t.Errorf("Dump missing paper's tuples:\n%s", dump)
	}
}

// TestIncrementalMatchesRecompute checks Theorem 5.1: for uniform queries
// the incremental specification represents the same answer set as the
// recomputed one.
func TestIncrementalMatchesRecompute(t *testing.T) {
	cases := []struct {
		src     string
		queries []string
	}{
		{listsSrc, []string{`?- Member(S, a).`, `?- Member(S, X).`, `?- Member(S, a), Member(S, b).`}},
		{`
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`, []string{`?- Meets(T, tony).`, `?- Meets(T, X), Next(X, Y).`}},
	}
	for _, tc := range cases {
		sp, prog := buildSpec(t, tc.src)
		for _, qs := range tc.queries {
			q, err := parser.ParseQuery(prog, qs)
			if err != nil {
				t.Fatalf("ParseQuery(%s): %v", qs, err)
			}
			inc, err := Incremental(sp, q)
			if err != nil {
				t.Fatalf("Incremental(%s): %v", qs, err)
			}
			rec, err := Recompute(prog, q, engine.Options{}, specgraph.Options{})
			if err != nil {
				t.Fatalf("Recompute(%s): %v", qs, err)
			}
			// Compare by enumeration to depth 5 (distinct universes, so
			// compare printed forms).
			encode := func(a *Answers) map[string]bool {
				out := make(map[string]bool)
				tuples, _, err := a.Render(context.Background(), 5, 0)
				if err != nil {
					t.Fatalf("Render: %v", err)
				}
				for _, tu := range tuples {
					out[tu.Key()] = true
				}
				return out
			}
			gi, gr := encode(inc), encode(rec)
			if len(gi) != len(gr) {
				t.Errorf("%s: incremental %d answers, recompute %d answers", qs, len(gi), len(gr))
				continue
			}
			for k := range gi {
				if !gr[k] {
					t.Errorf("%s: answer %q only in incremental", qs, k)
				}
			}
		}
	}
}

func TestNonUniformQueryRecompute(t *testing.T) {
	// Member(ext(S, a), b): the functional term has an application above
	// the variable, so the query is not uniform. The answer: lists S such
	// that S extended by a contains b, i.e. S already contains b.
	sp, prog := buildSpec(t, listsSrc)
	q, err := parser.ParseQuery(prog, `?- Member(ext(S, a), b).`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if IsUniform(q) {
		t.Fatalf("query should not be uniform")
	}
	if _, err := Incremental(sp, q); err == nil {
		t.Fatalf("Incremental must reject non-uniform queries")
	}
	ans, err := Recompute(prog, q, engine.Options{}, specgraph.Options{})
	if err != nil {
		t.Fatalf("Recompute: %v", err)
	}
	extA, _ := prog.Tab.LookupFunc("ext'a", 0)
	extB, _ := prog.Tab.LookupFunc("ext'b", 0)
	bList := []symbols.FuncID{extB}
	aList := []symbols.FuncID{extA}
	if ok, _ := ans.Contains(bList, nil); !ok {
		t.Errorf("S = [b] should be an answer")
	}
	if ok, _ := ans.Contains(aList, nil); ok {
		t.Errorf("S = [a] should not be an answer")
	}
	if ok, _ := ans.Contains(nil, nil); ok {
		t.Errorf("S = [] should not be an answer")
	}
}

func TestExistentialFunctionalVariable(t *testing.T) {
	// ?- Member(_S, X): which elements occur in some list? Both a and b.
	sp, prog := buildSpec(t, listsSrc)
	q, err := parser.ParseQuery(prog, `?- Member(_S, X).`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	ans, err := Incremental(sp, q)
	if err != nil {
		t.Fatalf("Incremental: %v", err)
	}
	if ans.HasFunctionalAnswers() {
		t.Fatalf("answers should be purely non-functional")
	}
	tab := sp.Tab
	aC, _ := tab.LookupConst("a")
	bC, _ := tab.LookupConst("b")
	if ok, _ := ans.Contains(nil, []symbols.ConstID{aC}); !ok {
		t.Errorf("X = a expected")
	}
	if ok, _ := ans.Contains(nil, []symbols.ConstID{bC}); !ok {
		t.Errorf("X = b expected")
	}
	n := 0
	if err := ans.Paths(context.Background(), 0, func(path []symbols.FuncID, args []symbols.ConstID) bool {
		if path != nil {
			t.Errorf("a purely non-functional answer yielded the path %v", path)
		}
		n++
		return true
	}); err != nil {
		t.Fatalf("Paths: %v", err)
	}
	if n != 2 {
		t.Errorf("enumerated %d answers, want 2", n)
	}
}

func TestEnumerateOrderAndCutoff(t *testing.T) {
	sp, prog := buildSpec(t, listsSrc)
	q, err := parser.ParseQuery(prog, `?- Member(S, a).`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	ans, err := Incremental(sp, q)
	if err != nil {
		t.Fatalf("Incremental: %v", err)
	}
	var depths []int
	if err := ans.Paths(context.Background(), 3, func(path []symbols.FuncID, args []symbols.ConstID) bool {
		depths = append(depths, len(path))
		return true
	}); err != nil {
		t.Fatalf("Paths: %v", err)
	}
	if len(depths) == 0 {
		t.Fatalf("no answers enumerated")
	}
	for i := 1; i < len(depths); i++ {
		if depths[i] < depths[i-1] {
			t.Errorf("enumeration not in precedence order")
		}
	}
	for _, d := range depths {
		if d > 3 {
			t.Errorf("answer deeper than cutoff: %d", d)
		}
	}
	// Early stop.
	count := 0
	if err := ans.Paths(context.Background(), 3, func([]symbols.FuncID, []symbols.ConstID) bool {
		count++
		return count < 2
	}); err != nil {
		t.Fatalf("Paths: %v", err)
	}
	if count != 2 {
		t.Errorf("early stop ignored: %d", count)
	}
}

func TestQueryWithGroundTerm(t *testing.T) {
	// Does the specific list [a] have member X? Only X = a.
	_, prog := buildSpec(t, listsSrc)
	q, err := parser.ParseQuery(prog, `?- Member(ext(0, a), X).`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	// Ground mixed terms are not uniform for our builder until eliminated;
	// Recompute handles them.
	ans, err := Recompute(prog, q, engine.Options{}, specgraph.Options{})
	if err != nil {
		t.Fatalf("Recompute: %v", err)
	}
	aC, _ := prog.Tab.LookupConst("a")
	bC, _ := prog.Tab.LookupConst("b")
	if ok, _ := ans.Contains(nil, []symbols.ConstID{aC}); !ok {
		t.Errorf("X = a expected")
	}
	if ok, _ := ans.Contains(nil, []symbols.ConstID{bC}); ok {
		t.Errorf("X = b not expected")
	}
}
