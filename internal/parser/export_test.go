package parser

import (
	"fmt"

	"funcdb/internal/ast"
	"funcdb/internal/term"
)

// refFTerm is the construction builder.fterm replaced, kept as the reference
// of the differential test: recursive, growing the term by one
// ast.FTerm.Apply (a copy of the whole chain) per layer — quadratic in the
// depth, but obviously right.
func (b *builder) refFTerm(t *rawTerm) (*ast.FTerm, error) { return b.refLayers(t, len(t.apps)) }

func (b *builder) refLayers(t *rawTerm, n int) (*ast.FTerm, error) {
	var out *ast.FTerm
	plus := t.plus
	switch {
	case n > 0:
		app := &t.apps[n-1]
		inner, err := b.refLayers(t, n-1)
		if err != nil {
			return nil, err
		}
		dargs := make([]ast.DTerm, 0, len(app.args))
		for i := range app.args {
			d, err := b.dterm(&app.args[i])
			if err != nil {
				return nil, err
			}
			dargs = append(dargs, d)
		}
		out, plus = inner.Apply(b.tab.Func(app.name, len(dargs)), dargs...), app.plus
	case t.kind == rNum:
		out = ast.FZero()
		s := b.tab.Func(term.SuccName, 0)
		for i := 0; i < t.num; i++ {
			out = out.Apply(s)
		}
	case t.kind == rVar:
		out = ast.FVar(b.tab.Var(t.name))
	default:
		return nil, fmt.Errorf("%d:%d: constant %s cannot appear in a functional position", t.line, t.col, t.name)
	}
	for i := 0; i < plus; i++ {
		out = out.Apply(b.tab.Func(term.SuccName, 0))
	}
	return out, nil
}

// UseReferenceBuilder makes Parse and ParseQuery build functional terms by
// the recursive reference until the returned function is called. Not for
// parallel tests.
func UseReferenceBuilder() (restore func()) {
	buildFTerm = (*builder).refFTerm
	return func() { buildFTerm = (*builder).fterm }
}
