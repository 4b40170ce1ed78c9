package temporal

import (
	"strings"
	"testing"

	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

func buildTemporal(t *testing.T, src string) *Spec {
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
	ts, err := Build(sp)
	if err != nil {
		t.Fatalf("temporal.Build: %v", err)
	}
	return ts
}

func TestMeetingsLasso(t *testing.T) {
	ts := buildTemporal(t, `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`)
	if ts.Prefix != 0 || ts.Period != 2 {
		t.Fatalf("lasso = (%d, %d), want (0, 2)", ts.Prefix, ts.Period)
	}
	tab := ts.Graph.Tab
	meets, _ := tab.LookupPred("Meets", 1, true)
	tony, _ := tab.LookupConst("tony")
	jan, _ := tab.LookupConst("jan")
	for n := 0; n <= 1000; n += 97 {
		wantTony := n%2 == 0
		if got := ts.Has(meets, n, []symbols.ConstID{tony}); got != wantTony {
			t.Errorf("Meets(%d, tony) = %v, want %v", n, got, wantTony)
		}
		if got := ts.Has(meets, n, []symbols.ConstID{jan}); got == wantTony {
			t.Errorf("Meets(%d, jan) = %v", n, got)
		}
	}
}

func TestEvenEquation(t *testing.T) {
	ts := buildTemporal(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	if ts.Prefix != 0 || ts.Period != 2 {
		t.Fatalf("lasso = (%d, %d), want (0, 2)", ts.Prefix, ts.Period)
	}
	eq := ts.Equation()
	succ, _ := ts.Graph.Tab.LookupFunc("succ", 0)
	if n, _ := ts.Graph.U.AsNumber(eq[0], succ); n != 0 {
		t.Errorf("equation lhs = %d, want 0", n)
	}
	if n, _ := ts.Graph.U.AsNumber(eq[1], succ); n != 2 {
		t.Errorf("equation rhs = %d, want 2", n)
	}
	es := ts.EqSpec()
	if es.Size() != 1 {
		t.Errorf("|R| = %d, want 1 for a temporal program", es.Size())
	}
	if !es.Congruent(ts.Graph.U.Number(0, succ), ts.Graph.U.Number(4, succ)) {
		t.Errorf("(0,4) should be in Cl(R)")
	}
}

// TestPrefixLasso uses a program whose behaviour only stabilizes after an
// initial transient: Boot holds on days 0..2, Steady from day 3 on.
func TestPrefixLasso(t *testing.T) {
	ts := buildTemporal(t, `
Boot(0).
Boot(T), NotLast(T) -> Boot(T+1).
@functional NotLast/1.
NotLast(0).
NotLast(1).
Boot(2) -> Steady(3).
Steady(T) -> Steady(T+1).
`)
	tab := ts.Graph.Tab
	boot, _ := tab.LookupPred("Boot", 0, true)
	steady, _ := tab.LookupPred("Steady", 0, true)
	for n := 0; n <= 50; n++ {
		wantBoot := n <= 2
		wantSteady := n >= 3
		if got := ts.Has(boot, n, nil); got != wantBoot {
			t.Errorf("Boot(%d) = %v, want %v", n, got, wantBoot)
		}
		if got := ts.Has(steady, n, nil); got != wantSteady {
			t.Errorf("Steady(%d) = %v, want %v", n, got, wantSteady)
		}
	}
	if ts.Prefix+ts.Period < 4 {
		t.Errorf("lasso (%d, %d) too small to carry the transient", ts.Prefix, ts.Period)
	}
	if ts.Period != 1 {
		t.Errorf("period = %d, want 1 (steady state)", ts.Period)
	}
}

func TestRepDayArithmetic(t *testing.T) {
	ts := &Spec{Prefix: 3, Period: 4}
	cases := [][2]int{{0, 0}, {2, 2}, {3, 3}, {6, 6}, {7, 3}, {8, 4}, {10, 6}, {11, 3}, {103, 3}}
	for _, c := range cases {
		if got := ts.RepDay(c[0]); got != c[1] {
			t.Errorf("RepDay(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestRejectsNonTemporal(t *testing.T) {
	prog := parser.MustParse(`
P(a).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`).Program
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
	if _, err := Build(sp); err == nil {
		t.Fatalf("non-temporal program accepted")
	}
}

func TestDump(t *testing.T) {
	ts := buildTemporal(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	d := ts.Dump()
	for _, want := range []string{"prefix 0, period 2", "L[0]", "L[1]", "R = {(0, 2)}"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}
