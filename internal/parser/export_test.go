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
func (b *builder) refFTerm(t *rawTerm) (*ast.FTerm, error) { return b.refLayers(t, int(t.hi-t.lo)) }

// refLayers builds the term's n innermost applications over its base.
func (b *builder) refLayers(t *rawTerm, n int) (*ast.FTerm, error) {
	var out *ast.FTerm
	plus := t.plus
	switch {
	case n > 0:
		app := &b.p.apps[int(t.hi)-n]
		inner, err := b.refLayers(t, n-1)
		if err != nil {
			return nil, err
		}
		dargs := make([]ast.DTerm, 0, app.nargs)
		for j := app.args; j >= 0; j = b.p.terms[j].next {
			d, err := b.dterm(&b.p.terms[j])
			if err != nil {
				return nil, err
			}
			dargs = append(dargs, d)
		}
		out, plus = inner.Apply(b.tab.Func(b.p.name(app.off, app.n), len(dargs)), dargs...), app.plus
	case t.kind == rNum:
		out = ast.FZero()
		s := b.tab.Func(term.SuccName, 0)
		for i := int32(0); i < b.p.number(t); i++ {
			out = out.Apply(s)
		}
	case t.kind == rVar:
		out = ast.FVar(b.tab.Var(b.p.name(t.off, t.n)))
	default:
		line, col := lineCol(b.p.src, t.off)
		return nil, fmt.Errorf("%d:%d: constant %s cannot appear in a functional position", line, col, b.p.name(t.off, t.n))
	}
	for i := int32(0); i < plus; i++ {
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

// The sources and seeds the internal tests share with the external ones.
var (
	MeetingsSrc = meetingsSrc
	ListsSrc    = listsSrc
	DeepSeeds   = deepSeeds
)
