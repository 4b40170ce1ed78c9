package minimize

import (
	"testing"
)

func minimized(t *testing.T, src string) *Minimized {
	t.Helper()
	m, err := Minimize(buildSpec(t, src))
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	return m
}

// TestEquivalentPrograms: the same fixpoint written two ways — Even by +2
// strides vs Even through an intermediate helper predicate — must be
// recognized as equivalent on the observable predicate Even.
func TestEquivalentPrograms(t *testing.T) {
	a := minimized(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	b := minimized(t, `
@functional Half/1.
Even(0).
Even(T) -> Half(T+1).
Half(T) -> Even(T+1).
`)
	// Program b's Half is observable too, so restrict the comparison by
	// checking a against b only when the extra predicate never shows up...
	// Half holds on odd days, so these two programs are NOT equivalent as
	// written (different observable signatures):
	eq, _, err := Equivalent(a, b)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if eq {
		t.Fatalf("b exposes Half on odd days; must differ from a")
	}
	// Written with matching observables (the helper hidden behind the same
	// name shape), equivalence holds: compare two syntactically different
	// but observably identical programs.
	c := minimized(t, `
Even(0).
Even(T+2) <- Even(T).
`)
	eq, counter, err := Equivalent(a, c)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if !eq {
		t.Fatalf("head-first syntax must not change the fixpoint (counterexample %s)",
			a.Spec.U.String(counter, a.Spec.Tab))
	}
}

func TestEquivalentDetectsShiftedSeed(t *testing.T) {
	a := minimized(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	b := minimized(t, `
Even(1).
Even(T) -> Even(T+2).
`)
	eq, counter, err := Equivalent(a, b)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if eq {
		t.Fatalf("odd and even chains must differ")
	}
	// The counterexample must actually separate the two programs.
	tab := a.Spec.Tab
	even, _ := tab.LookupPred("Even", 0, true)
	gotA, err := a.Has(even, counter, nil)
	if err != nil {
		t.Fatalf("Has: %v", err)
	}
	// Check b at the same term by symbol names (single symbol: succ^n).
	succB, _ := b.Spec.Tab.LookupFunc("succ", 0)
	n := a.Spec.U.Depth(counter)
	evenB, _ := b.Spec.Tab.LookupPred("Even", 0, true)
	gotB, err := b.Has(evenB, b.Spec.U.Number(n, succB), nil)
	if err != nil {
		t.Fatalf("Has: %v", err)
	}
	if gotA == gotB {
		t.Errorf("counterexample day %d does not separate the programs", n)
	}
}

func TestEquivalentRejectsDifferentAlphabets(t *testing.T) {
	a := minimized(t, `
@functional P/1.
P(0).
P(S) -> P(f(S)).
`)
	b := minimized(t, `
@functional P/1.
P(0).
P(S) -> P(g(S)).
`)
	eq, _, err := Equivalent(a, b)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if eq {
		t.Fatalf("different alphabets cannot be equivalent")
	}
}

// TestEquivalentAcrossRuleRefactoring: a refactored protocol (rule order
// shuffled, body order flipped) stays equivalent.
func TestEquivalentAcrossRuleRefactoring(t *testing.T) {
	orig := minimized(t, `
State(0, idle).
State(S, idle) -> State(coin(S), paid).
State(S, paid) -> State(brew(S), idle).
State(S, idle) -> State(brew(S), jam).
State(S, paid) -> State(coin(S), jam).
State(S, jam) -> State(coin(S), jam).
State(S, jam) -> State(brew(S), jam).
`)
	refactored := minimized(t, `
State(S, jam) -> State(brew(S), jam).
State(S, jam) -> State(coin(S), jam).
State(S, paid) -> State(coin(S), jam).
State(S, idle) -> State(brew(S), jam).
State(S, paid) -> State(brew(S), idle).
State(S, idle) -> State(coin(S), paid).
State(0, idle).
`)
	eq, counter, err := Equivalent(orig, refactored)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if !eq {
		t.Fatalf("refactoring changed the fixpoint at %s",
			orig.Spec.U.String(counter, orig.Spec.Tab))
	}
	if self, _, _ := Equivalent(orig, orig); !self {
		t.Fatalf("reflexivity broken")
	}
}
