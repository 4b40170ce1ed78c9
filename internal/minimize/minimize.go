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
	"errors"
	"fmt"
	"sort"
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
	// classOf maps each original representative to its class.
	classOf map[term.Term]int
	// succ[class][alphabet index] is the successor class.
	succ [][]int
	// slices[class] is the shared observable slice.
	slices []map[facts.AtomID]bool
	root   int
}

var errMissingEdge = errors.New("minimize: missing successor edge")

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
// equivalence.
func Minimize(sp *specgraph.Spec) (*Minimized, error) {
	reps := sp.Reps
	n := len(reps)
	alphabet := sp.Alphabet
	k := len(alphabet)

	// The automaton over dense indices: next[i*k+fi] is the position in reps
	// of the successor of reps[i] under alphabet[fi].
	index := make(map[term.Term]int32, n)
	for i, t := range reps {
		index[t] = int32(i)
	}
	next := make([]int32, n*k)
	for i, t := range reps {
		for fi, f := range alphabet {
			to, ok := sp.Successor(t, f)
			if !ok {
				return nil, errMissingEdge
			}
			next[i*k+fi] = index[to]
		}
	}

	// Initial partition: by observable slice.
	in := interner{ids: make(map[string]int32, n)}
	class := make([]int32, n)
	for i, t := range reps {
		for _, a := range sp.Slice(t) {
			in.put(int32(a))
		}
		class[i] = in.id()
	}
	numClasses := len(in.ids)

	// Moore refinement: split classes by the vector of successor classes.
	newClass := make([]int32, n)
	for {
		clear(in.ids)
		for i := range reps {
			in.put(class[i])
			for _, to := range next[i*k : (i+1)*k] {
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

	// Canonicalize class ids by the precedence-least member, so output is
	// deterministic.
	least := make([]term.Term, numClasses)
	for i := range least {
		least[i] = term.None
	}
	for i, t := range reps {
		c := class[i]
		if least[c] == term.None || sp.U.Precedes(t, least[c]) {
			least[c] = t
		}
	}
	order := make([]int, numClasses)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return sp.U.Precedes(least[order[i]], least[order[j]])
	})
	renumber := make([]int, numClasses)
	for newID, oldID := range order {
		renumber[oldID] = newID
	}

	m := &Minimized{
		Spec:    sp,
		Members: make([][]term.Term, numClasses),
		classOf: make(map[term.Term]int, n),
		succ:    make([][]int, numClasses),
		slices:  make([]map[facts.AtomID]bool, numClasses),
	}
	for i, t := range reps {
		c := renumber[class[i]]
		m.classOf[t] = c
		m.Members[c] = append(m.Members[c], t)
	}
	for c := range m.Members {
		sort.Slice(m.Members[c], func(i, j int) bool {
			return sp.U.Precedes(m.Members[c][i], m.Members[c][j])
		})
		canon := m.Members[c][0]
		m.slices[c] = make(map[facts.AtomID]bool)
		for _, a := range sp.Slice(canon) {
			m.slices[c][a] = true
		}
		m.succ[c] = make([]int, k)
		for fi, to := range next[int(index[canon])*k:][:k] {
			m.succ[c][fi] = m.classOf[reps[to]]
		}
	}
	m.root = m.classOf[mustRoot(sp)]
	return m, nil
}

func mustRoot(sp *specgraph.Spec) term.Term {
	for _, t := range sp.Reps {
		if t == term.Zero {
			return t
		}
	}
	// The root is always a representative (depth 0 is below or at the seed).
	return sp.Reps[0]
}

// NumStates returns the number of classes.
func (m *Minimized) NumStates() int { return len(m.Members) }

// ClassOfRep returns the class of an original representative term without
// running the DFA; ok is false when t is not a representative.
func (m *Minimized) ClassOfRep(t term.Term) (int, bool) {
	c, ok := m.classOf[t]
	return c, ok
}

// CanonicalRep returns the precedence-least member of a class — the term a
// flat transition table uses to stand for the whole class.
func (m *Minimized) CanonicalRep(class int) term.Term { return m.Members[class][0] }

// The minimized quotient is a valid state space for flat transition tables.
var _ specgraph.Quotient = (*Minimized)(nil)

// ClassOf runs the minimized DFA on t.
func (m *Minimized) ClassOf(t term.Term) (int, error) {
	cur := m.root
	alpha := m.Spec.Alphabet
	for _, f := range m.Spec.U.Symbols(t) {
		fi := -1
		for i, g := range alpha {
			if g == f {
				fi = i
				break
			}
		}
		if fi < 0 {
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
	return m.slices[c][a], nil
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
