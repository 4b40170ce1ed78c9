package specgraph

import (
	"fmt"

	"funcdb/internal/facts"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Frozen is an immutable copy of a graph specification's query surface: the
// successor DFA, the representative states and the global (non-functional)
// facts. It holds no engine, no universe and no world — callers supply a
// term.View and facts.WorldView (normally per-query scratch overlays over
// the snapshot's frozen universe and world), so membership and answer
// evaluation run with zero locks and zero mutation of shared state.
type Frozen struct {
	// SeedDepth is where breadth-first exploration started.
	SeedDepth int
	// Alphabet is the successor alphabet, ascending.
	Alphabet []symbols.FuncID
	// Reps lists every representative term, in precedence order.
	Reps []term.Term
	// Merges are the (Active, Potential) equivalences — the relation R.
	Merges []Merge

	succ          map[edgeKey]term.Term
	state         map[term.Term]facts.StateID
	global        *facts.FrozenSet
	originalPreds map[symbols.PredID]bool
	flat          *FlatDFA
}

// Freeze captures the specification's query surface with flat tables built
// over the identity quotient (one flat state per representative). Call it
// under the writer lock; the spec and its engine may keep being used (and
// extended) afterwards, the frozen value never changes.
func (sp *Spec) Freeze() *Frozen { return sp.FreezeQuotient(nil) }

// FreezeQuotient is Freeze with the flat tables built over an explicit
// state quotient — normally the minimized observable-equivalence partition,
// which makes the tables as small as the coarsest equivalent automaton. A
// nil quotient falls back to the identity partition.
func (sp *Spec) FreezeQuotient(q Quotient) *Frozen {
	f := &Frozen{
		SeedDepth:     sp.SeedDepth,
		Alphabet:      append([]symbols.FuncID(nil), sp.Alphabet...),
		Reps:          append([]term.Term(nil), sp.Reps...),
		Merges:        append([]Merge(nil), sp.Merges...),
		succ:          make(map[edgeKey]term.Term, len(sp.succ)),
		state:         make(map[term.Term]facts.StateID, len(sp.state)),
		global:        facts.FreezeSet(sp.Eng.Global()),
		originalPreds: make(map[symbols.PredID]bool, len(sp.Eng.Prep.OriginalPreds)),
	}
	for k, v := range sp.succ {
		f.succ[k] = v
	}
	for k, v := range sp.state {
		f.state[k] = v
	}
	for k, v := range sp.Eng.Prep.OriginalPreds {
		f.originalPreds[k] = v
	}
	f.flat = buildFlat(sp, q)
	return f
}

// Flat returns the flat transition tables, or nil when they could not be
// built (callers then use the map-based walk).
func (f *Frozen) Flat() *FlatDFA { return f.flat }

// OriginalPred reports whether p is a predicate of the original program
// (as opposed to a normalization helper). Only original predicates are
// observable through the flat tables.
func (f *Frozen) OriginalPred(p symbols.PredID) bool { return f.originalPreds[p] }

// Representative runs the successor DFA on t's symbol string, reading t
// through v (which may be a scratch overlay holding t).
func (f *Frozen) Representative(v term.View, t term.Term) (term.Term, error) {
	cur := term.Zero
	for _, fn := range v.Symbols(t) {
		next, ok := f.succ[edgeKey{cur, fn}]
		if !ok {
			return term.None, fmt.Errorf("specgraph: symbol %v is not in the specification's alphabet", fn)
		}
		cur = next
	}
	return cur, nil
}

// Successor returns the representative of fn applied to the cluster of rep.
func (f *Frozen) Successor(rep term.Term, fn symbols.FuncID) (term.Term, bool) {
	t, ok := f.succ[edgeKey{rep, fn}]
	return t, ok
}

// StateOfRep returns the interned state of a representative.
func (f *Frozen) StateOfRep(rep term.Term) facts.StateID { return f.state[rep] }

// Has decides P(t, args) ∈ L from the frozen specification alone.
func (f *Frozen) Has(v term.View, w facts.WorldView, pred symbols.PredID, t term.Term, args []symbols.ConstID) (bool, error) {
	rep, err := f.Representative(v, t)
	if err != nil {
		return false, err
	}
	a := w.Atom(pred, w.Tuple(args))
	return w.StateContains(f.state[rep], a), nil
}

// HasData decides a non-functional fact from the frozen global set.
func (f *Frozen) HasData(w facts.WorldView, pred symbols.PredID, args []symbols.ConstID) bool {
	return f.global.Has(w.Atom(pred, w.Tuple(args)))
}

// GlobalByPred returns the frozen global facts of predicate p.
func (f *Frozen) GlobalByPred(p symbols.PredID) []facts.AtomID { return f.global.ByPred(p) }

// Slice returns the primary-database slice B[rep] restricted to the
// original program's predicates, read through w.
func (f *Frozen) Slice(w facts.WorldView, rep term.Term) []facts.AtomID {
	var out []facts.AtomID
	for _, a := range w.StateAtoms(f.state[rep]) {
		if f.originalPreds[w.AtomPred(a)] {
			out = append(out, a)
		}
	}
	return out
}
