package specgraph

import (
	"funcdb/internal/facts"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Frozen is the immutable query surface of a graph specification: the
// successor table, the relation R and the frozen global (non-functional)
// facts, shared with the Spec it was frozen from (none changes once built),
// and the flat tables. It holds no engine, no universe and no world —
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
// under the writer lock; the frozen value never changes.
func (sp *Spec) Freeze() *Frozen { return sp.FreezeQuotient(nil) }

// FreezeQuotient is Freeze with the flat tables built over an explicit
// state quotient — normally the minimized observable-equivalence partition,
// which makes the tables as small as the coarsest equivalent automaton. A
// nil quotient is the identity partition. It is the one way to a Frozen, for
// a specification Algorithm Q built and for one read from a document.
func (sp *Spec) FreezeQuotient(q Quotient) *Frozen {
	// Nothing is copied: the table, R, the global relation and
	// OriginalPreds do not change once the Spec is built.
	return &Frozen{
		SeedDepth:     sp.SeedDepth,
		Table:         sp.Table,
		Merges:        sp.Merges,
		global:        sp.Global,
		originalPreds: sp.OriginalPreds,
		flat:          buildFlat(sp.Table, q, sp.SliceAt),
	}
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

// HasData decides a non-functional fact from the frozen global set. It
// interns nothing: an atom w has never seen is not in the set.
func (f *Frozen) HasData(w *facts.World, pred symbols.PredID, args []symbols.ConstID) bool {
	a, ok := w.Lookup(pred, args)
	return ok && f.global.Has(w, a)
}

// GlobalByPred returns the frozen global facts of predicate p.
func (f *Frozen) GlobalByPred(p symbols.PredID) []facts.AtomID { return f.global.ByPred(p) }
