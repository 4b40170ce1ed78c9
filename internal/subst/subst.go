// Package subst implements ground substitutions and one-way matching of
// rule atoms against ground facts, the core operation of bottom-up
// evaluation (section 2.2).
//
// Matching operates on programs whose mixed function symbols have already
// been eliminated (package rewrite), so every functional pattern is a chain
// of pure unary symbols over 0 or a functional variable and every ground
// functional term lives in a term.Universe.
package subst

import (
	"funcdb/internal/ast"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

type constBinding struct {
	v symbols.VarID
	c symbols.ConstID
}

type termBinding struct {
	v symbols.VarID
	t term.Term
}

// Binding is a ground substitution: data variables map to constants and
// functional variables to ground functional terms. Rules bind only a
// handful of variables, so the representation is two small slices with
// linear lookup. The zero value is an empty binding.
type Binding struct {
	consts []constBinding
	terms  []termBinding
}

// Reset empties b, retaining storage.
func (b *Binding) Reset() {
	b.consts = b.consts[:0]
	b.terms = b.terms[:0]
}

// Len returns the number of bound variables.
func (b *Binding) Len() int { return len(b.consts) + len(b.terms) }

// Mark returns an undo token for the current state; passing it to Undo
// removes every binding added since.
func (b *Binding) Mark() (int, int) { return len(b.consts), len(b.terms) }

// Undo rolls b back to the state captured by Mark.
func (b *Binding) Undo(nc, nt int) {
	b.consts = b.consts[:nc]
	b.terms = b.terms[:nt]
}

// Const returns the constant bound to v, if any.
func (b *Binding) Const(v symbols.VarID) (symbols.ConstID, bool) {
	for i := range b.consts {
		if b.consts[i].v == v {
			return b.consts[i].c, true
		}
	}
	return symbols.NoConst, false
}

// Term returns the ground term bound to v, if any.
func (b *Binding) Term(v symbols.VarID) (term.Term, bool) {
	for i := range b.terms {
		if b.terms[i].v == v {
			return b.terms[i].t, true
		}
	}
	return term.None, false
}

// BindConst binds v to c, or checks consistency if v is already bound.
// It reports whether the binding is consistent.
func (b *Binding) BindConst(v symbols.VarID, c symbols.ConstID) bool {
	if cur, ok := b.Const(v); ok {
		return cur == c
	}
	b.consts = append(b.consts, constBinding{v, c})
	return true
}

// BindTerm binds v to t, or checks consistency if v is already bound.
func (b *Binding) BindTerm(v symbols.VarID, t term.Term) bool {
	if cur, ok := b.Term(v); ok {
		return cur == t
	}
	b.terms = append(b.terms, termBinding{v, t})
	return true
}

// MatchData matches a data-term pattern against a ground constant,
// extending b. It reports whether the match succeeds.
func (b *Binding) MatchData(pat ast.DTerm, c symbols.ConstID) bool {
	if pat.IsVar() {
		return b.BindConst(pat.Var, c)
	}
	return pat.Const == c
}

// MatchFTerm matches a pure functional-term pattern against the ground term
// t of u, extending b. Patterns with mixed applications are rejected.
func (b *Binding) MatchFTerm(u *term.Universe, pat *ast.FTerm, t term.Term) bool {
	// Peel the pattern's applications off t, outermost first.
	for i := len(pat.Apps) - 1; i >= 0; i-- {
		app := pat.Apps[i]
		if len(app.Args) != 0 {
			return false // mixed symbol: run rewrite.EliminateMixed first
		}
		if t == term.Zero || u.Top(t) != app.Fn {
			return false
		}
		t = u.Child(t)
	}
	if !pat.HasVarBase() {
		return t == term.Zero
	}
	return b.BindTerm(pat.Base, t)
}

// ApplyData instantiates a data-term pattern under b. It reports failure
// when the pattern is an unbound variable.
func (b *Binding) ApplyData(pat ast.DTerm) (symbols.ConstID, bool) {
	if !pat.IsVar() {
		return pat.Const, true
	}
	return b.Const(pat.Var)
}

// ApplyFTerm instantiates a pure functional-term pattern under b, interning
// the result in u. It reports failure when the base variable is unbound or
// the pattern has mixed applications.
func (b *Binding) ApplyFTerm(u *term.Universe, pat *ast.FTerm) (term.Term, bool) {
	base := term.Zero
	if pat.HasVarBase() {
		t, ok := b.Term(pat.Base)
		if !ok {
			return term.None, false
		}
		base = t
	}
	for _, app := range pat.Apps {
		if len(app.Args) != 0 {
			return term.None, false
		}
		base = u.Apply(app.Fn, base)
	}
	return base, true
}

// GroundFTerm interns a fully ground pure functional term in u. It reports
// failure for non-ground or mixed terms.
func GroundFTerm(u *term.Universe, ft *ast.FTerm) (term.Term, bool) {
	var b Binding
	return b.ApplyFTerm(u, ft)
}
