package explain

import (
	"strings"
	"testing"

	"funcdb/internal/congruence"
	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

func buildSpec(t *testing.T, src string) *specgraph.Spec {
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
	return sp
}

func TestExplainMeetings(t *testing.T) {
	sp := buildSpec(t, `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`)
	tab := sp.Tab
	meets, _ := tab.LookupPred("Meets", 1, true)
	succ, _ := tab.LookupFunc("succ", 0)
	tony, _ := tab.LookupConst("tony")
	ex, err := Membership(sp, meets, sp.U.Number(4, succ), []symbols.ConstID{tony})
	if err != nil {
		t.Fatalf("Membership: %v", err)
	}
	if !ex.Holds {
		t.Fatalf("Meets(4, tony) should hold")
	}
	if len(ex.Steps) != 4 {
		t.Fatalf("steps = %d, want 4", len(ex.Steps))
	}
	if ex.Representative != sp.U.Number(0, succ) {
		t.Fatalf("representative = %v, want day 0", ex.Representative)
	}
	// Steps 1 is plain (0 -> 1); step 2 merges via 0 ~ 2, and later steps
	// reuse the same two equations.
	if ex.Steps[0].Merged {
		t.Errorf("step 1 should be a plain extension")
	}
	if !ex.Steps[1].Merged {
		t.Errorf("step 2 should apply an equation")
	}
	// The walk alternates 0 -> 1 (plain) and 1 -> 0 [by 0 ~ 2]: only the
	// single lasso equation is ever applied.
	eqs := ex.EquationsUsed()
	if len(eqs) != 1 {
		t.Errorf("equations used = %d, want 1 (0~2)", len(eqs))
	}
	s := ex.String()
	for _, want := range []string{"Meets(4, tony)?", "step 4", "representative: 0", "⇒  true"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestExplainNegative(t *testing.T) {
	sp := buildSpec(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	tab := sp.Tab
	even, _ := tab.LookupPred("Even", 0, true)
	succ, _ := tab.LookupFunc("succ", 0)
	ex, err := Membership(sp, even, sp.U.Number(3, succ), nil)
	if err != nil {
		t.Fatalf("Membership: %v", err)
	}
	if ex.Holds {
		t.Fatalf("Even(3) should not hold")
	}
	if !strings.Contains(ex.String(), "⇒  false") {
		t.Errorf("negative verdict missing:\n%s", ex.String())
	}
}

// TestEquationsUsedAreSound: every equation the explanation cites must
// actually be in Cl(R) — indeed in R itself (up to orientation).
func TestEquationsUsedAreSound(t *testing.T) {
	sp := buildSpec(t, `
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`)
	tab := sp.Tab
	member, _ := tab.LookupPred("Member", 1, true)
	aC, _ := tab.LookupConst("a")
	extA, _ := tab.LookupFunc("ext'a", 0)
	extB, _ := tab.LookupFunc("ext'b", 0)

	var pairs [][2]term.Term
	for _, m := range sp.Merges {
		pairs = append(pairs, [2]term.Term{m.Rep, m.Potential})
	}
	es := congruence.NewEqSpec(sp.U, pairs)
	inR := make(map[[2]term.Term]bool)
	for _, p := range pairs {
		inR[p] = true
	}

	tm := sp.U.ApplyString(term.Zero, extB, extA, extB, extA)
	ex, err := Membership(sp, member, tm, []symbols.ConstID{aC})
	if err != nil {
		t.Fatalf("Membership: %v", err)
	}
	if !ex.Holds {
		t.Fatalf("Member(baba, a) should hold")
	}
	for _, eq := range ex.EquationsUsed() {
		if !inR[eq] {
			t.Errorf("cited equation not in R: %v", eq)
		}
		if !es.Congruent(eq[0], eq[1]) {
			t.Errorf("cited equation not congruent: %v", eq)
		}
	}
	// The full chain is itself a congruence proof: t ~ representative.
	if !es.Congruent(tm, ex.Representative) {
		t.Errorf("term not congruent to its representative")
	}
}

func TestExplainRootTerm(t *testing.T) {
	sp := buildSpec(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	tab := sp.Tab
	even, _ := tab.LookupPred("Even", 0, true)
	ex, err := Membership(sp, even, term.Zero, nil)
	if err != nil {
		t.Fatalf("Membership: %v", err)
	}
	if !ex.Holds || len(ex.Steps) != 0 {
		t.Errorf("Even(0): holds=%v steps=%d", ex.Holds, len(ex.Steps))
	}
	if !strings.Contains(ex.String(), "root representative") {
		t.Errorf("root case not mentioned:\n%s", ex.String())
	}
}
