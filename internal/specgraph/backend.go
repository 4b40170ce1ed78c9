package specgraph

import (
	"funcdb/internal/facts"
	"funcdb/internal/symbols"
)

// The methods below expose the specification as a query evaluation backend
// (they satisfy query.Backend structurally; specgraph cannot import query).
// They read the live world and engine — the caller must hold the owning
// database's lock, as for every other Spec method.

// Facts returns the specification's fact world.
func (sp *Spec) Facts() *facts.World { return sp.W }

// Names returns the program's symbol table for rendering.
func (sp *Spec) Names() *symbols.Table { return sp.Eng.Prep.Program.Tab }

// GlobalByPred returns the non-functional facts of predicate p.
func (sp *Spec) GlobalByPred(p symbols.PredID) []facts.AtomID {
	return sp.Eng.Global().ByPred(p)
}

// Successors returns the specification's successor table.
func (sp *Spec) Successors() *Table { return sp.Table }
