package engine

import (
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// AnchorTerms returns the anchor region's terms.
func (e *Engine) AnchorTerms() []term.Term { return e.anchorList }

// HasGlobal reports whether the non-functional fact pred(args) is in the
// least fixpoint. Valid after Solve.
func (e *Engine) HasGlobal(pred symbols.PredID, args []symbols.ConstID) bool {
	return e.global.Has(e.W, e.W.Atom(pred, e.W.Tuple(args)))
}
