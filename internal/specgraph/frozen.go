package specgraph

import (
	"funcdb/internal/facts"
	"funcdb/internal/symbols"
)

// Frozen is the immutable query surface of a graph specification: the
// successor table (the relation R is its non-tree edges) and the frozen
// global (non-functional) facts, shared with the Spec it was frozen from
// (none changes once built). It holds no engine and no universe, and its
// world is a frozen view read only to build flat tables: callers supply a
// *term.Universe and *facts.World (normally per-query overlays over the
// snapshot's frozen universe and world), so membership and answer
// evaluation run with zero locks and zero mutation of shared state.
type Frozen struct {
	// SeedDepth is where breadth-first exploration started.
	SeedDepth int
	*Table

	w             *facts.World
	global        *facts.Set
	originalPreds map[symbols.PredID]bool
}

// Freeze captures the specification's query surface, for a specification
// Algorithm Q built and for one read from a document alike. Call it under
// the writer lock; the frozen value never changes.
func (sp *Spec) Freeze() *Frozen {
	// Nothing is copied: the table, the global relation and OriginalPreds
	// do not change once the Spec is built.
	return &Frozen{
		SeedDepth:     sp.SeedDepth,
		Table:         sp.Table,
		w:             sp.W.Freeze(),
		global:        sp.Global,
		originalPreds: sp.OriginalPreds,
	}
}

// World returns the frozen view of the specification's world taken when it
// was frozen.
func (f *Frozen) World() *facts.World { return f.w }

// Flat builds the flat tables over the identity quotient, one flat state
// per representative.
func (f *Frozen) Flat() *FlatDFA { return f.FlatOver(nil) }

// FlatOver builds the flat tables over the quotient q (nil: the identity),
// each state's slice read off the frozen world.
func (f *Frozen) FlatOver(q Quotient) *FlatDFA {
	return buildFlat(f.Table, q, func(i int) []facts.AtomID {
		var out []facts.AtomID
		for _, a := range f.w.StateAtoms(f.State[i]) {
			if f.originalPreds[f.w.AtomPred(a)] {
				out = append(out, a)
			}
		}
		return out
	})
}

// OriginalPred reports whether p is a predicate of the original program
// (as opposed to a normalization helper). Only original predicates are
// observable through the flat tables.
func (f *Frozen) OriginalPred(p symbols.PredID) bool { return f.originalPreds[p] }

// HasData decides a non-functional fact from the frozen global set. It
// interns nothing: an atom w has never seen is not in the set.
func (f *Frozen) HasData(w *facts.World, pred symbols.PredID, args []symbols.ConstID) bool {
	a, ok := w.Lookup(pred, args)
	return ok && f.global.Has(w, a)
}

// GlobalByPred returns the frozen global facts of predicate p.
func (f *Frozen) GlobalByPred(p symbols.PredID) []facts.AtomID { return f.global.ByPred(p) }
