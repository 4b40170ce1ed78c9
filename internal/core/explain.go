package core

import (
	"context"
	"fmt"
	"strings"

	"funcdb/internal/ast"
	"funcdb/internal/explain"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/subst"
	"funcdb/internal/symbols"
)

// Explain answers a ground query and justifies each atom's verdict with the
// Link-rule trace of package explain.
//
// The returned Explanations hold references into this database's interning
// structures, so rendering them (String) is NOT safe concurrently with other
// queries on the same database; use ExplainText for a concurrency-safe
// rendered trace.
func (db *Database) Explain(src string) ([]*explain.Explanation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.explainLocked(context.Background(), src)
}

// ExplainText is Explain with the traces rendered to text under the
// database lock, making it safe for concurrent use; a specification it has
// to build is built under ctx.
func (db *Database) ExplainText(ctx context.Context, src string) (string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	exs, err := db.explainLocked(ctx, src)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, ex := range exs {
		b.WriteString(ex.String())
	}
	return b.String(), nil
}

func (db *Database) explainLocked(ctx context.Context, src string) ([]*explain.Explanation, error) {
	q, err := parser.ParseQuery(db.Source, src)
	if err != nil {
		return nil, err
	}
	sp, err := db.graphLocked(ctx)
	if err != nil {
		return nil, err
	}
	var out []*explain.Explanation
	for i := range q.Atoms {
		a := &q.Atoms[i]
		if !a.IsGround() {
			return nil, fmt.Errorf("core: explain needs a ground query; %s has variables", a.Format(db.Tab()))
		}
		if a.FT == nil {
			return nil, fmt.Errorf("core: explain covers functional atoms; %s is non-functional", a.Format(db.Tab()))
		}
		ft := a.FT
		if !ftIsPure(ft) {
			p := &ast.Program{Tab: db.Source.Tab, Facts: []ast.Atom{{Pred: a.Pred, FT: ft, Args: a.Args}}}
			pure, err := rewrite.EliminateMixed(p)
			if err != nil {
				return nil, err
			}
			ft = pure.Facts[0].FT
		}
		t, ok := subst.GroundFTerm(db.universe, ft)
		if !ok {
			return nil, fmt.Errorf("core: atom is not ground")
		}
		args := make([]symbols.ConstID, len(a.Args))
		for j, d := range a.Args {
			args[j] = d.Const
		}
		ex, err := explain.Membership(sp, a.Pred, t, args)
		if err != nil {
			return nil, err
		}
		out = append(out, ex)
	}
	return out, nil
}
