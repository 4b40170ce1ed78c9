package specgraph

import (
	"sort"
	"sync/atomic"

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
// original-predicate atoms. A ground membership walk touches no maps and
// allocates nothing once warm — the whole point of compiling the
// specification once (the paper's premise applied to the serving hot path).
//
// The walk is the Link rules run over a symbol string, and the automaton
// picks one of three kernels for it when it is built:
//
//   - lasso: over a one-symbol alphabet the root's orbit is a tail of a
//     states and a cycle of p (Theorem 4.3's single equation
//     succ^(a+p)(0) = succ^a(0)), so the state after n symbols is one
//     modulo away, whatever n is;
//   - stride: when the state × Σ × Σ table is small, a long walk reads two
//     symbols per dependent load;
//   - step: one symbol per dependent load.
//
// Every cell holds its successor's row offset (state·|Σ|, or state·|Σ|² in
// the stride table), so the chain of loads has no multiply on it.
type FlatDFA struct {
	tab   *Table           // translates symbols
	k     int32            // |Σ|
	next  []int32          // state*k + sym -> successor*k
	atoms [][]facts.AtomID // per state: sorted original-predicate atoms

	kernel kernel
	// The lasso kernel: orbit[n] is the state after n symbols for n <
	// len(orbit) = tail + period.
	orbit []int32
	tail  int
	// The stride kernel: state*k² + a*k + b -> (state after a, then b)*k²,
	// built on the first walk long enough to use it.
	pairs atomic.Pointer[[]int32]
}

type kernel uint8

const (
	kernelStep kernel = iota
	kernelStride
	kernelLasso
)

const (
	// strideMaxCells bounds the stride table at 256 KB: it must stay in
	// cache beside the row table to beat one load per symbol, and a
	// republish must not pay for a table its short asks never read (so it
	// is built lazily, not here).
	strideMaxCells = 1 << 16
	// strideMinLen is the shortest walk that builds and uses the stride
	// table: below it the step kernel is as fast, and a snapshot whose asks
	// are all short never builds the table.
	strideMinLen = 64
)

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
	} else {
		// A class's row and slice are its first member's: classes are
		// numbered by first member, so the next new class is always
		// len(f.atoms).
		for i, c := range q {
			if int(c) != len(f.atoms) {
				continue
			}
			for _, to := range tab.Row(int32(i)) {
				f.next = append(f.next, q[to]*k)
			}
			f.atoms = append(f.atoms, slice(i))
		}
	}
	switch n := len(f.atoms); {
	case k == 0:
		// No symbol: every walk is empty and ends at the root.
		f.kernel, f.orbit = kernelLasso, []int32{Root}
	case k == 1:
		f.kernel = kernelLasso
		f.orbit, f.tail = rootOrbit(f.next)
	case n*int(k)*int(k) <= strideMaxCells:
		f.kernel = kernelStride
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
// returns the final state. Over a one-symbol alphabet it reads only the
// string's length and costs the same at any depth; otherwise it makes one
// dependent table read per symbol, or per two symbols once a walk of
// strideMinLen or more has built the stride table. After that first long
// walk it allocates nothing.
func (f *FlatDFA) Walk(syms []int32) int32 {
	switch f.kernel {
	case kernelLasso:
		return f.lasso(len(syms))
	case kernelStride:
		if len(syms) >= strideMinLen {
			return f.stride(f.pairTable(), syms)
		}
	}
	return f.step(syms)
}

// lasso returns the state after n symbols of a one-symbol alphabet.
func (f *FlatDFA) lasso(n int) int32 {
	if n < len(f.orbit) {
		return f.orbit[n]
	}
	return f.orbit[f.tail+(n-f.tail)%(len(f.orbit)-f.tail)]
}

// step walks one symbol per load.
func (f *FlatDFA) step(syms []int32) int32 {
	next, off := f.next, int32(0) // the root's row
	for _, s := range syms {
		off = next[off+s]
	}
	return off / f.k
}

// stride walks two symbols per load through pairs, and an odd last symbol
// through the row table.
func (f *FlatDFA) stride(pairs, syms []int32) int32 {
	k, off := f.k, int32(0) // the root's row
	for len(syms) >= 2 {
		off = pairs[off+syms[0]*k+syms[1]]
		syms = syms[2:]
	}
	state := off / (k * k)
	if len(syms) == 1 {
		return f.next[state*k+syms[0]] / k
	}
	return state
}

// pairTable returns the stride table, building it on first use. Walks that
// race to build it each build one and keep whichever was published first.
func (f *FlatDFA) pairTable() []int32 {
	if p := f.pairs.Load(); p != nil {
		return *p
	}
	p := f.buildPairs()
	f.pairs.CompareAndSwap(nil, &p)
	return *f.pairs.Load()
}

// buildPairs composes the row table with itself: the cell of (state, a, b)
// is the successor of state under a, then under b.
func (f *FlatDFA) buildPairs() []int32 {
	k := f.k
	pairs := make([]int32, len(f.next)*int(k))
	for i, mid := range f.next { // i = state*k + a
		row := f.next[mid : mid+k]
		cell := pairs[i*int(k) : (i+1)*int(k)]
		for b, to := range row {
			cell[b] = to * k
		}
	}
	return pairs
}

// StateHas reports whether the observable slice of state contains atom a,
// by binary search over the sorted slice.
func (f *FlatDFA) StateHas(state int32, a facts.AtomID) bool {
	d := f.atoms[state]
	i := sort.Search(len(d), func(i int) bool { return d[i] >= a })
	return i < len(d) && d[i] == a
}
