package specgraph

import (
	"errors"
	"fmt"
	"slices"

	"funcdb/internal/facts"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Table is the successor mappings T of a specification, written once by
// Build and never changed: the representatives are dense indices in
// precedence order — state i is Reps[i], state 0 the term 0 — and T is one
// array over (state, symbol index). It holds integers only, no engine,
// universe or world, so whatever reads a specification (the live Spec, a
// Frozen snapshot, an answer specification, the minimised automaton, the
// flat DFA) shares this one value instead of re-encoding it.
//
// It is keyed on representatives, not on the classes of the minimised
// automaton, because a query may name a normalisation helper predicate,
// which the minimised quotient does not preserve.
type Table struct {
	// Alphabet is the successor alphabet, ascending.
	Alphabet []symbols.FuncID
	// Reps lists every representative term: all terms of depth below the
	// seed depth (singleton clusters) followed by the Active terms, in
	// precedence order.
	Reps []term.Term
	// State is the full interned state of each representative.
	State []facts.StateID

	trans []int32 // state*len(Alphabet) + symbol index -> state
	// Reps[i] is Alphabet[via[i]] applied to Reps[parent[i]] (a
	// representative's subterm is one too); -1 at the root.
	parent, via []int32

	// FuncID -> symbol index, -1 when absent: dense when the symbol id space
	// is reasonably tight, a map for wide alphabets whose FuncIDs are
	// scattered across a large table.
	symDense  []int32
	symSparse map[symbols.FuncID]int32
}

// Root is the state of the term 0: Build admits it first.
const Root int32 = 0

func newTable(alphabet []symbols.FuncID) *Table {
	t := &Table{Alphabet: alphabet}
	maxID := symbols.FuncID(-1)
	for _, fn := range alphabet {
		if fn > maxID {
			maxID = fn
		}
	}
	if int(maxID)+1 <= 4*len(alphabet)+64 {
		t.symDense = make([]int32, int(maxID)+1)
		for i := range t.symDense {
			t.symDense[i] = -1
		}
		for i, fn := range alphabet {
			t.symDense[fn] = int32(i)
		}
	} else {
		t.symSparse = make(map[symbols.FuncID]int32, len(alphabet))
		for i, fn := range alphabet {
			t.symSparse[fn] = int32(i)
		}
	}
	return t
}

// NewTable makes the table of a specification no engine built — one read
// from a document: Reps[i] is alphabet[via[i]] applied to Reps[parent[i]],
// and trans holds the successors, state by state. The arrays become the
// table's. It makes the check Build makes of its own table.
func NewTable(alphabet []symbols.FuncID, reps []term.Term, state []facts.StateID, parent, via, trans []int32) (*Table, error) {
	t := newTable(alphabet)
	t.Reps, t.State, t.parent, t.via, t.trans = reps, state, parent, via, trans
	if err := t.check(); err != nil {
		return nil, err
	}
	return t, nil
}

// check is the one check a table is trusted on, after which nothing that
// reads it checks again: state 0 is the root, every other representative
// hangs from an earlier one by an edge of T, and every cell holds a state.
func (t *Table) check() error {
	n, k := len(t.Reps), len(t.Alphabet)
	if n == 0 || len(t.State) != n || len(t.parent) != n || len(t.via) != n || len(t.trans) != n*k {
		return errors.New("specgraph: table arrays of unequal lengths")
	}
	for _, to := range t.trans {
		if to < 0 || int(to) >= n {
			return errors.New("specgraph: a successor is undefined or out of range")
		}
	}
	if t.parent[Root] != -1 || t.via[Root] != -1 {
		return errors.New("specgraph: state 0 is not the root")
	}
	for i := 1; i < n; i++ {
		p, v := t.parent[i], t.via[i]
		if p < 0 || int(p) >= i || v < 0 || int(v) >= k || t.trans[int(p)*k+int(v)] != int32(i) {
			return fmt.Errorf("specgraph: representative %d does not hang from an earlier one", i)
		}
	}
	return nil
}

// add appends the representative rep with state s, reached from state parent
// under symbol index via, with its successors still unknown.
func (t *Table) add(rep term.Term, s facts.StateID, parent, via int32) int32 {
	i := int32(len(t.Reps))
	t.Reps = append(t.Reps, rep)
	t.State = append(t.State, s)
	t.parent = append(t.parent, parent)
	t.via = append(t.via, via)
	for range t.Alphabet {
		t.trans = append(t.trans, -1)
	}
	return i
}

// NonTree calls fn for every non-tree edge of T in examination order (the
// cells row by row): the relation R of §3.5, which nothing stores. The
// Potential term Alphabet[via] applied to Reps[from] did not become Active,
// and Reps[to] represents its cluster.
func (t *Table) NonTree(fn func(from, via, to int32)) {
	k := int32(len(t.Alphabet))
	for c, to := range t.trans {
		if from, via := int32(c)/k, int32(c)%k; t.parent[to] != from || t.via[to] != via {
			fn(from, via, to)
		}
	}
}

// NumEquations returns |R|: every cell of T is an equation but the tree
// edges, one per representative past the root.
func (t *Table) NumEquations() int { return len(t.trans) - len(t.Reps) + 1 }

// Intern interns the representatives in u along the tree T hangs them from
// and returns their terms there, index for index with Reps — for a reader
// that builds R (see NonTree) in a universe of its own.
func (t *Table) Intern(u *term.Universe) []term.Term {
	reps := make([]term.Term, len(t.Reps)) // reps[Root] is term.Zero
	for i := 1; i < len(reps); i++ {
		reps[i] = u.Apply(t.Alphabet[t.via[i]], reps[t.parent[i]])
	}
	return reps
}

// NumStates returns the number of representatives.
func (t *Table) NumStates() int { return len(t.Reps) }

// Bytes estimates what the table retains.
func (t *Table) Bytes() int {
	return 160 + 4*(len(t.Alphabet)+2*len(t.Reps)+len(t.trans)+2*len(t.parent)+len(t.symDense)) + 16*len(t.symSparse)
}

// SymIndex translates a function symbol to its index in the alphabet; ok is
// false when the symbol is not in it.
func (t *Table) SymIndex(fn symbols.FuncID) (int32, bool) {
	if t.symDense != nil {
		if int(fn) >= len(t.symDense) || fn < 0 {
			return 0, false
		}
		i := t.symDense[fn]
		return i, i >= 0
	}
	i, ok := t.symSparse[fn]
	return i, ok
}

// Row returns the successors of state, one per symbol index. The slice is
// the table's own: read it only.
func (t *Table) Row(state int32) []int32 {
	k := len(t.Alphabet)
	return t.trans[int(state)*k : (int(state)+1)*k : (int(state)+1)*k]
}

// Step returns the successor of state under fn; ok is false when fn is not
// in the alphabet.
func (t *Table) Step(state int32, fn symbols.FuncID) (int32, bool) {
	j, ok := t.SymIndex(fn)
	if !ok {
		return 0, false
	}
	return t.trans[int(state)*len(t.Alphabet)+int(j)], true
}

// Walk runs the DFA (the paper's Link rules) from the root over a symbol
// string, innermost first, and returns the state reached — for the symbols
// of a representative, its own index. On a symbol outside the alphabet it
// stops and returns that symbol with ok false.
func (t *Table) Walk(syms []symbols.FuncID) (state int32, bad symbols.FuncID, ok bool) {
	state = Root
	for _, fn := range syms {
		if state, ok = t.Step(state, fn); !ok {
			return 0, fn, false
		}
	}
	return state, 0, true
}

// Index returns the state t's symbol string leads to, reading t through v
// (which may be a query-local overlay holding t): t's own index when t is a
// representative, its representative's otherwise.
func (t *Table) Index(v *term.Universe, tm term.Term) (int32, error) {
	i, bad, ok := t.Walk(v.Symbols(tm))
	if !ok {
		return 0, fmt.Errorf("specgraph: symbol %v is not in the specification's alphabet", bad)
	}
	return i, nil
}

// Path returns the symbols of Reps[state], innermost first, read off the
// table alone — for readers that hold no universe the representatives are
// interned in.
func (t *Table) Path(state int32) []symbols.FuncID {
	var syms []symbols.FuncID
	for p := state; t.parent[p] >= 0; p = t.parent[p] {
		syms = append(syms, t.Alphabet[t.via[p]])
	}
	slices.Reverse(syms)
	return syms
}
