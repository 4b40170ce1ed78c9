// Package minimize shrinks graph specifications by observable equivalence.
//
// Algorithm Q merges terms with identical states, but states are taken over
// every predicate of the normalized program — including the helper
// predicates that normalization introduces. Two representatives can
// therefore differ only in helper facts while answering every query over
// the original predicates identically, now and after any sequence of
// successor steps. The paper's conclusion calls for exactly this kind of
// optimization ("techniques for optimizing the database C are also
// necessary").
//
// Minimize runs Moore partition refinement on the successor automaton:
// the initial partition groups representatives by their primary-database
// slice (original predicates only) and the global refinement step splits
// classes whose members disagree on some successor's class. The result is
// the coarsest quotient that answers all original-predicate membership
// queries exactly like the full specification, and it is never larger.
package minimize

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"funcdb/internal/facts"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Minimized is a minimized graph specification.
type Minimized struct {
	Spec *specgraph.Spec
	// Members lists the representative terms of each class, in precedence
	// order; the first member is the class's canonical term.
	Members [][]term.Term
	// class[i] is the class of Spec.Reps[i]. Classes are numbered by their
	// precedence-least member, so the root's class is 0.
	class []int32
	// succ[class][alphabet index] is the successor class.
	succ [][]int
	// slices[class] is the shared observable slice, sorted.
	slices [][]facts.AtomID
}

// interner numbers byte strings in order of first occurrence. A signature is
// a vector of integers written into one reused buffer; looking it up
// allocates nothing, and only the first vector of each class is retained.
type interner struct {
	ids map[string]int32
	key []byte
}

func (in *interner) put(v int32) { in.key = binary.LittleEndian.AppendUint32(in.key, uint32(v)) }

// id returns the number of the vector put since the last call.
func (in *interner) id() int32 {
	id, ok := in.ids[string(in.key)]
	if !ok {
		id = int32(len(in.ids))
		in.ids[string(in.key)] = id
	}
	in.key = in.key[:0]
	return id
}

// Minimize quotients the specification's automaton by observable
// equivalence, partitioning the indices of its successor table in place.
// The error is always nil: a built specification's table is total.
func Minimize(sp *specgraph.Spec) (*Minimized, error) {
	n := len(sp.Reps)

	// Initial partition: by observable slice. Representatives are visited in
	// index order, which is precedence order, and the interner numbers
	// classes by first occurrence — so in every round the class ids are
	// already the canonical ones, ordered by precedence-least member.
	in := interner{ids: make(map[string]int32, n)}
	class := make([]int32, n)
	for i := range class {
		for _, a := range sp.SliceAt(i) {
			in.put(int32(a))
		}
		class[i] = in.id()
	}
	numClasses := len(in.ids)

	// Moore refinement: split classes by the vector of successor classes.
	newClass := make([]int32, n)
	for {
		clear(in.ids)
		for i := range class {
			in.put(class[i])
			for _, to := range sp.Row(int32(i)) {
				in.put(class[to])
			}
			newClass[i] = in.id()
		}
		if len(in.ids) == numClasses {
			break
		}
		class, newClass = newClass, class
		numClasses = len(in.ids)
	}

	m := &Minimized{
		Spec:    sp,
		Members: make([][]term.Term, numClasses),
		class:   class,
		succ:    make([][]int, numClasses),
		slices:  make([][]facts.AtomID, numClasses),
	}
	for i, c := range class {
		if m.Members[c] == nil {
			// The class's first member stands for it.
			m.slices[c] = sp.SliceAt(i)
			m.succ[c] = make([]int, len(sp.Alphabet))
			for fi, to := range sp.Row(int32(i)) {
				m.succ[c][fi] = int(class[to])
			}
		}
		m.Members[c] = append(m.Members[c], sp.Reps[i])
	}
	return m, nil
}

// NumStates returns the number of classes.
func (m *Minimized) NumStates() int { return len(m.Members) }

// Quotient returns the partition as the class of each representative index:
// the state space flat transition tables are built over.
func (m *Minimized) Quotient() specgraph.Quotient { return m.class }

// ClassOf runs the minimized DFA on t.
func (m *Minimized) ClassOf(t term.Term) (int, error) {
	cur := 0 // the root's class
	for _, f := range m.Spec.U.Symbols(t) {
		fi, ok := m.Spec.SymIndex(f)
		if !ok {
			return 0, fmt.Errorf("minimize: symbol not in alphabet")
		}
		cur = m.succ[cur][fi]
	}
	return cur, nil
}

// Has decides pred(t, args) from the minimized specification.
func (m *Minimized) Has(pred symbols.PredID, t term.Term, args []symbols.ConstID) (bool, error) {
	c, err := m.ClassOf(t)
	if err != nil {
		return false, err
	}
	a := m.Spec.W.Atom(pred, m.Spec.W.Tuple(args))
	_, found := slices.BinarySearch(m.slices[c], a)
	return found, nil
}

// Dump renders the minimized automaton.
func (m *Minimized) Dump() string {
	tab := m.Spec.Eng.Prep.Program.Tab
	var b strings.Builder
	fmt.Fprintf(&b, "minimized specification: %d classes (from %d representatives)\n",
		m.NumStates(), len(m.Spec.Reps))
	for c, members := range m.Members {
		names := make([]string, len(members))
		for i, t := range members {
			names[i] = m.Spec.U.CompactString(t, tab)
		}
		fmt.Fprintf(&b, "  class %d: {%s}, %d tuples\n", c, strings.Join(names, ", "), len(m.slices[c]))
	}
	for c := range m.succ {
		for fi, f := range m.Spec.Alphabet {
			fmt.Fprintf(&b, "  succ_%s(%d) = %d\n", tab.FuncName(f), c, m.succ[c][fi])
		}
	}
	return b.String()
}
