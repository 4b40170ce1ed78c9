package canonical

import (
	"strings"
	"testing"

	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/fixpoint"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

func buildForm(t *testing.T, src string) *Form {
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
	return Build(sp)
}

var sources = map[string]string{
	"meetings": `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`,
	"lists": `
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`,
	"planner": `
At(0, p0).
Connected(p0, p1).
Connected(p1, p2).
Connected(p2, p0).
At(S, P1), Connected(P1, P2) -> At(move(S, P1, P2), P2).
`,
	"even": `
Even(0).
Even(T) -> Even(T+2).
`,
}

// TestCanonicalFormMatchesFixpoint checks section 3.6: answers computed
// from (C, CONGR) — here, from (B, R) via congruence closure — agree with
// the directly computed least fixpoint on every workload, for all facts up
// to depth 5.
func TestCanonicalFormMatchesFixpoint(t *testing.T) {
	for name, src := range sources {
		form := buildForm(t, src)
		prep := form.Spec.Eng.Prep
		u := form.Spec.U
		w := form.Spec.W
		ref, err := fixpoint.Eval(prep.Program, u, w, fixpoint.Options{MaxDepth: 5})
		if err != nil {
			t.Fatalf("%s: fixpoint: %v", name, err)
		}
		// Walk all terms to depth 5; compare membership for every original
		// functional predicate and every tuple the reference derived.
		var walk func(tm term.Term)
		walk = func(tm term.Term) {
			for _, p := range ref.Store.FnPreds() {
				if !prep.OriginalPreds[p] {
					continue
				}
				for _, tu := range ref.Store.TuplesAt(p, tm) {
					if !form.Has(p, tm, w.TupleArgs(tu)) {
						t.Errorf("%s: canonical form missing %s at %s",
							name, prep.Program.Tab.PredName(p), u.CompactString(tm, prep.Program.Tab))
					}
				}
			}
			if u.Depth(tm) < 5 {
				for _, f := range prep.Funcs {
					walk(u.Apply(f, tm))
				}
			}
		}
		walk(term.Zero)
		// And the converse: no over-derivation. Sample every term to depth
		// 4 against every atom seen anywhere in the primary database.
		atoms := make(map[facts.AtomID]bool)
		for _, rep := range form.Spec.Reps {
			for _, a := range form.Spec.Slice(rep) {
				atoms[a] = true
			}
		}
		var walk2 func(tm term.Term)
		walk2 = func(tm term.Term) {
			for a := range atoms {
				p := w.AtomPred(a)
				args := w.TupleArgs(w.AtomTuple(a))
				got := form.Has(p, tm, args)
				want := ref.Store.HasFn(p, tm, args)
				if got != want {
					t.Errorf("%s: canonical form says %v for %s at %s, fixpoint says %v",
						name, got, prep.Program.Tab.PredName(p), u.CompactString(tm, prep.Program.Tab), want)
				}
			}
			if u.Depth(tm) < 4 {
				for _, f := range prep.Funcs {
					walk2(u.Apply(f, tm))
				}
			}
		}
		walk2(term.Zero)
	}
}

func TestCongrRulesAreProgramIndependent(t *testing.T) {
	// The CONGR rules must depend only on predicates and function symbols,
	// not on the actual rules: two different rule sets over the same
	// signature yield identical CONGR text.
	f1 := buildForm(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	f2 := buildForm(t, `
Even(4).
Even(T) -> Even(T+3).
`)
	if f1.CongrRules() != f2.CongrRules() {
		t.Errorf("CONGR differs across rule sets with the same signature:\n%s\nvs\n%s",
			f1.CongrRules(), f2.CongrRules())
	}
}

func TestCongrRulesShape(t *testing.T) {
	f := buildForm(t, sources["meetings"])
	rules := f.CongrRules()
	for _, want := range []string{
		"Cong(S, S).",
		"Cong(S, T) -> Cong(T, S).",
		"Cong(S, T), Cong(T, U) -> Cong(S, U).",
		"Cong(S, T) -> Cong(succ(S), succ(T)).",
		"Meets(S, X1), Cong(S, T) -> Meets(T, X1).",
	} {
		if !strings.Contains(rules, want) {
			t.Errorf("CONGR missing %q:\n%s", want, rules)
		}
	}
}

func TestDatabaseC(t *testing.T) {
	f := buildForm(t, sources["even"])
	c := f.DatabaseC()
	for _, want := range []string{"Even(0).", "R(0, 2)."} {
		if !strings.Contains(c, want) {
			t.Errorf("C missing %q:\n%s", want, c)
		}
	}
}

func TestHasData(t *testing.T) {
	f := buildForm(t, sources["lists"])
	tab := f.Spec.Eng.Prep.Program.Tab
	p, _ := tab.LookupPred("P", 1, false)
	a, _ := tab.LookupConst("a")
	if !f.HasData(p, []symbols.ConstID{a}) {
		t.Errorf("P(a) missing from C")
	}
}

// TestQueryShapeSize: the shape's buffer is sized once by counting, so the
// count must be the length written — an undercount grows the buffer, an
// overcount is retained by every cached plan uncharged.
func TestQueryShapeSize(t *testing.T) {
	prog := parser.MustParse(`
		P(a). P(b).
		P(X) -> Member(ext(0, X), X).
		P(Y), Member(S, X) -> Member(ext(S, Y), Y).
		Meets(0, tony). Meets(T, X), Next(X, Y) -> Meets(T+1, Y). Next(tony, jan).
		Wide(a, b, c, d, e, f, g, h, i, j, k, l).
	`).Program
	texts := []string{
		"?- Meets(0, tony).",
		"?- Meets(12, X).",
		"?- Meets(T+3, _X), Next(_X, Y).",
		"?- Member(ext(ext(0, a), X), b).",
		"?- Member(ext(ext(S, a), X), X), Meets(T, X), Next(X, jan).",
		"?- Wide(A, B, C, D, E, F, G, H, I, J, K, L), Wide(L, K, a, b, c, d, e, f, g, h, i, M).",
	}
	for _, text := range texts {
		q, err := parser.ParseQuery(prog, text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		w := shapeWriter{q: q, names: prog.Tab, fn: symbols.NoFunc}
		if n, shape := w.size(), QueryShape(q, prog.Tab); n != len(shape) {
			t.Errorf("%s: counted %d bytes, wrote %d (%s)", text, n, len(shape), shape)
		}
	}
}
