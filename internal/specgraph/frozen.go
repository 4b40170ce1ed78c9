package specgraph

import (
	"funcdb/internal/facts"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Frozen is the immutable query surface of a graph specification: the
// successor table and the relation R, shared with the Spec it was frozen
// from (neither changes once built), and a frozen view of the global
// (non-functional) facts. It holds no engine, no universe and no world —
// callers supply a *term.Universe and *facts.World (normally per-query
// overlays over the snapshot's frozen universe and world), so
// membership and answer evaluation run with zero locks and zero mutation of
// shared state.
type Frozen struct {
	// SeedDepth is where breadth-first exploration started.
	SeedDepth int
	*Table
	// Merges are the (Active, Potential) equivalences — the relation R.
	Merges []Merge

	global        *facts.Set
	originalPreds map[symbols.PredID]bool
	flat          *FlatDFA
}

// Freeze captures the specification's query surface with flat tables built
// over the identity quotient (one flat state per representative). Call it
// under the writer lock; the engine may keep being used (and extended)
// afterwards, the frozen value never changes.
func (sp *Spec) Freeze() *Frozen { return sp.FreezeQuotient(nil) }

// FreezeQuotient is Freeze with the flat tables built over an explicit
// state quotient — normally the minimized observable-equivalence partition,
// which makes the tables as small as the coarsest equivalent automaton. A
// nil quotient is the identity partition.
func (sp *Spec) FreezeQuotient(q Quotient) *Frozen {
	f := &Frozen{
		SeedDepth:     sp.SeedDepth,
		Table:         sp.Table,
		Merges:        sp.Merges,
		global:        sp.Eng.Global().Freeze(),
		originalPreds: make(map[symbols.PredID]bool, len(sp.Eng.Prep.OriginalPreds)),
		flat:          buildFlat(sp, q),
	}
	for k, v := range sp.Eng.Prep.OriginalPreds {
		f.originalPreds[k] = v
	}
	return f
}

// Flat returns the flat transition tables ground plans execute on.
func (f *Frozen) Flat() *FlatDFA { return f.flat }

// OriginalPred reports whether p is a predicate of the original program
// (as opposed to a normalization helper). Only original predicates are
// observable through the flat tables.
func (f *Frozen) OriginalPred(p symbols.PredID) bool { return f.originalPreds[p] }

// Representative returns the representative of t's cluster, reading t
// through v.
func (f *Frozen) Representative(v *term.Universe, t term.Term) (term.Term, error) {
	i, err := f.Index(v, t)
	if err != nil {
		return term.None, err
	}
	return f.Reps[i], nil
}

// HasData decides a non-functional fact from the frozen global set.
func (f *Frozen) HasData(w *facts.World, pred symbols.PredID, args []symbols.ConstID) bool {
	return f.global.Has(w, w.Atom(pred, w.Tuple(args)))
}

// GlobalByPred returns the frozen global facts of predicate p.
func (f *Frozen) GlobalByPred(p symbols.PredID) []facts.AtomID { return f.global.ByPred(p) }
