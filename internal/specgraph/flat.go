package specgraph

import (
	"sort"

	"funcdb/internal/facts"
	"funcdb/internal/symbols"
)

// Quotient is a partition of the representatives that a flat transition
// table may be built over: Quotient[i] is the class of Reps[i], classes
// numbered in order of their first (precedence-least) member, so the root's
// class is 0. nil is the identity partition (one class per representative);
// internal/minimize supplies the coarser observable-equivalence quotient.
// Any quotient must be closed under successors and must preserve the
// observable (original-predicate) slice within each class.
type Quotient []int32

// FlatDFA is the successor automaton lowered onto a quotient: a dense
// state×symbol transition matrix (the specification's own table under the
// identity quotient) plus, per state, the sorted observable slice of
// original-predicate atoms. No served path walks one — a ground plan walks
// the Table — but it is the form the walk law and the minimised automaton
// are checked in, and its walk makes one dependent load per symbol and
// allocates nothing. Every cell holds its successor's row offset
// (state·|Σ|), so the chain of loads has no multiply on it.
type FlatDFA struct {
	tab   *Table           // translates symbols
	k     int32            // |Σ|
	next  []int32          // state*k + sym -> successor*k
	atoms [][]facts.AtomID // per state: sorted original-predicate atoms
}

// buildFlat composes a successor table with the given quotient; slice(i) is
// the observable slice of representative i, sorted.
func buildFlat(tab *Table, q Quotient, slice func(i int) []facts.AtomID) *FlatDFA {
	k := int32(len(tab.Alphabet))
	f := &FlatDFA{tab: tab, k: k}
	if q == nil {
		f.next = make([]int32, len(tab.trans))
		for i, to := range tab.trans {
			f.next[i] = to * k
		}
		f.atoms = make([][]facts.AtomID, len(tab.Reps))
		for i := range f.atoms {
			f.atoms[i] = slice(i)
		}
		return f
	}
	// A class's row and slice are its first member's: classes are numbered
	// by first member, so the next new class is always len(f.atoms).
	for i, c := range q {
		if int(c) != len(f.atoms) {
			continue
		}
		for _, to := range tab.Row(int32(i)) {
			f.next = append(f.next, q[to]*k)
		}
		f.atoms = append(f.atoms, slice(i))
	}
	return f
}

// rootOrbit follows the root through a one-symbol transition array, where
// succ[i] is state i's successor, until a state repeats: orbit lists the
// states after 0, 1, … symbols, the first tail of them never seen again and
// the rest a cycle.
func rootOrbit(succ []int32) (orbit []int32, tail int) {
	seen := make([]int32, len(succ)) // state -> 1 + its place in orbit
	for s := Root; seen[s] == 0; s = succ[s] {
		orbit = append(orbit, s)
		seen[s] = int32(len(orbit))
	}
	return orbit, int(seen[succ[orbit[len(orbit)-1]]]) - 1
}

// Lasso is Theorem 4.3's single equation succ^(Tail+Period)(0) =
// succ^Tail(0): the root's orbit under a one-symbol alphabet.
type Lasso struct{ Tail, Period int }

// Lasso reads the lasso off a table whose alphabet has one symbol; it is
// nil for any other alphabet.
func (t *Table) Lasso() *Lasso {
	if len(t.Alphabet) != 1 {
		return nil
	}
	orbit, tail := rootOrbit(t.trans)
	return &Lasso{Tail: tail, Period: len(orbit) - tail}
}

// NumStates returns the number of flat states.
func (f *FlatDFA) NumStates() int { return len(f.atoms) }

// SymIndex translates a function symbol to its flat index; ok is false when
// the symbol is not in the alphabet.
func (f *FlatDFA) SymIndex(fn symbols.FuncID) (int32, bool) { return f.tab.SymIndex(fn) }

// Walk runs the DFA from the root over a pre-translated symbol string
// (innermost-first flat indices, each already validated by SymIndex) and
// returns the final state, one dependent table read per symbol.
func (f *FlatDFA) Walk(syms []int32) int32 {
	next, off := f.next, int32(0) // the root's row
	for _, s := range syms {
		off = next[off+s]
	}
	if f.k == 0 {
		return Root // no symbol: every walk is empty
	}
	return off / f.k
}

// StateHas reports whether the observable slice of state contains atom a,
// by binary search over the sorted slice.
func (f *FlatDFA) StateHas(state int32, a facts.AtomID) bool {
	d := f.atoms[state]
	i := sort.Search(len(d), func(i int) bool { return d[i] >= a })
	return i < len(d) && d[i] == a
}
