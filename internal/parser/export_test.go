package parser

import (
	"fmt"
	"reflect"

	"funcdb/internal/ast"
	"funcdb/internal/symbols"
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

// FTermsMatchReference builds every functional term of src twice, by fterm
// and by the reference refFTerm, each side in a symbol table of its own, and
// returns an error naming the first term the two build differently (or one
// builds and the other refuses). src is a program, parsed and inferred as
// Parse does, when tab is nil, and otherwise a query against a copy of tab,
// as ParseQueryTab reads it. The tables grow in step, so the terms must
// agree identifier for identifier.
func FTermsMatchReference(src string, tab *symbols.Table) error {
	p, err := newParser(src)
	if err != nil {
		return err
	}
	if err := p.parseProgram(); err != nil {
		return err
	}
	var got, ref *builder
	if tab == nil {
		g, r := ast.NewProgram(), ast.NewProgram()
		got, ref = newBuilder(p, g.Tab), newBuilder(p, r.Tab)
		got.prog, ref.prog = g, r
	} else {
		got, ref = newBuilder(p, tab.Clone()), newBuilder(p, tab.Clone())
	}
	for _, b := range []*builder{got, ref} {
		if err := b.infer(); err != nil {
			return err
		}
	}
	for _, ai := range p.order {
		a := &p.atoms[ai]
		if !got.predFunctional(a) {
			continue
		}
		t := &p.terms[a.args]
		g, gErr := got.fterm(t)
		r, rErr := ref.refFTerm(t)
		if !reflect.DeepEqual(g, r) || (gErr == nil) != (rErr == nil) {
			return fmt.Errorf("%s: term built as %v (%v), by the reference as %v (%v)", got.at(p.termPos(t)), g, gErr, r, rErr)
		}
	}
	return nil
}

// The sources and seeds the internal tests share with the external ones.
var (
	MeetingsSrc = meetingsSrc
	ListsSrc    = listsSrc
	DeepSeeds   = deepSeeds
)
