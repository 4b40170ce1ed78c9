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
// state×symbol transition matrix of int32 class ids (the specification's
// own table under the identity quotient) plus, per state, the sorted
// observable slice of original-predicate atoms. A ground membership walk
// touches no maps and allocates nothing — the whole point of compiling the
// specification once (the paper's premise applied to the serving hot path).
type FlatDFA struct {
	tab   *Table           // translates symbols
	trans []int32          // state*len(tab.Alphabet) + sym -> successor state
	atoms [][]facts.AtomID // per state: sorted original-predicate atoms
}

// buildFlat composes a successor table with the given quotient; slice(i) is
// the observable slice of representative i, sorted.
func buildFlat(tab *Table, q Quotient, slice func(i int) []facts.AtomID) *FlatDFA {
	f := &FlatDFA{tab: tab}
	if q == nil {
		f.trans = tab.trans
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
			f.trans = append(f.trans, q[to])
		}
		f.atoms = append(f.atoms, slice(i))
	}
	return f
}

// NumStates returns the number of flat states.
func (f *FlatDFA) NumStates() int { return len(f.atoms) }

// SymIndex translates a function symbol to its flat index; ok is false when
// the symbol is not in the alphabet.
func (f *FlatDFA) SymIndex(fn symbols.FuncID) (int32, bool) { return f.tab.SymIndex(fn) }

// Walk runs the DFA from the root over a pre-translated symbol string
// (innermost-first flat indices, each already validated by SymIndex) and
// returns the final state. It performs len(syms) array reads and nothing
// else.
func (f *FlatDFA) Walk(syms []int32) int32 {
	cur := Root
	ns := len(f.tab.Alphabet)
	for _, s := range syms {
		cur = f.trans[int(cur)*ns+int(s)]
	}
	return cur
}

// StateHas reports whether the observable slice of state contains atom a,
// by binary search over the sorted slice.
func (f *FlatDFA) StateHas(state int32, a facts.AtomID) bool {
	d := f.atoms[state]
	i := sort.Search(len(d), func(i int) bool { return d[i] >= a })
	return i < len(d) && d[i] == a
}
