package rewrite

import (
	"fmt"
	"sort"

	"funcdb/internal/ast"
	"funcdb/internal/symbols"
)

// EliminateMixed removes mixed (k-ary) function symbols from a
// domain-independent program, following section 2.4: for every mixed term
// g(v, z̄) and every vector ā of constants from the active domain that
// agrees with the constants among z̄, a pure symbol g'ā is introduced and a
// rule instance is created in which g(v, z̄) is replaced by g'ā(v) and the
// variables among z̄ are replaced by the corresponding constants throughout
// the rule. The number of new rules is polynomial in the database size, and
// the transformation preserves normality of rules.
//
// The returned program shares p's symbol table; derived symbols are named
// g'a'b and marked Derived.
func EliminateMixed(p *ast.Program) (*ast.Program, error) {
	out := &ast.Program{Tab: p.Tab}
	domain := p.ConstsUsed()
	sort.Slice(domain, func(i, j int) bool { return domain[i] < domain[j] })
	if len(domain) == 0 {
		// A program can use mixed symbols only with constant arguments
		// somewhere in scope; with an empty active domain no mixed term can
		// ever be ground, so instantiation simply drops such rules.
		domain = nil
	}
	e := &eliminator{tab: p.Tab, domain: domain}

	for i := range p.Facts {
		f, err := e.groundAtom(p.Facts[i].Clone())
		if err != nil {
			return nil, fmt.Errorf("fact %s: %w", p.Facts[i].Format(p.Tab), err)
		}
		out.Facts = append(out.Facts, f)
	}
	for i := range p.Rules {
		insts, err := e.rule(p.Rules[i])
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", p.Rules[i].Format(p.Tab), err)
		}
		out.Rules = append(out.Rules, insts...)
	}
	return out, nil
}

type eliminator struct {
	tab    *symbols.Table
	domain []symbols.ConstID
}

// PureName appends to buf the name g'a'b of the derived pure symbol that
// stands for the mixed application g(·, a, b), whose arguments must all be
// constants. The apostrophe is a valid identifier character in the surface
// syntax, so eliminated programs can be printed and re-parsed. A ground
// query resolves its mixed applications against a compiled program by this
// name, without running the elimination.
func PureName(buf []byte, names *symbols.Table, app ast.FApp) []byte {
	buf = append(buf, names.FuncName(app.Fn)...)
	for _, d := range app.Args {
		buf = append(buf, '\'')
		buf = append(buf, names.ConstName(d.Const)...)
	}
	return buf
}

// pureApp returns the derived pure application replacing a mixed one; ok is
// false while an argument is still a variable.
func (e *eliminator) pureApp(app ast.FApp) (pure ast.FApp, ok bool) {
	for _, d := range app.Args {
		if d.IsVar() {
			return app, false
		}
	}
	return ast.FApp{Fn: e.tab.DerivedFunc(string(PureName(nil, e.tab, app)))}, true
}

// groundAtom rewrites the mixed applications of a ground atom in place.
func (e *eliminator) groundAtom(a ast.Atom) (ast.Atom, error) {
	if a.FT == nil {
		return a, nil
	}
	for i, app := range a.FT.Apps {
		if len(app.Args) == 0 {
			continue
		}
		pure, ok := e.pureApp(app)
		if !ok {
			return ast.Atom{}, fmt.Errorf("mixed application with variable argument in a ground atom")
		}
		a.FT.Apps[i] = pure
	}
	return a, nil
}

// mixedVars returns the data variables occurring inside mixed applications
// anywhere in the rule, in first-occurrence order.
func mixedVars(r *ast.Rule) []symbols.VarID {
	seen := make(map[symbols.VarID]bool)
	var order []symbols.VarID
	scan := func(a *ast.Atom) {
		if a.FT == nil {
			return
		}
		for _, app := range a.FT.Apps {
			if len(app.Args) == 0 {
				continue
			}
			for _, d := range app.Args {
				if d.IsVar() && !seen[d.Var] {
					seen[d.Var] = true
					order = append(order, d.Var)
				}
			}
		}
	}
	scan(&r.Head)
	for i := range r.Body {
		scan(&r.Body[i])
	}
	return order
}

// substituteDataVar replaces every occurrence of v in the rule by the
// constant c.
func substituteDataVar(r *ast.Rule, v symbols.VarID, c symbols.ConstID) {
	sub := func(d *ast.DTerm) {
		if d.IsVar() && d.Var == v {
			*d = ast.C(c)
		}
	}
	subAtom := func(a *ast.Atom) {
		for i := range a.Args {
			sub(&a.Args[i])
		}
		if a.FT != nil {
			for i := range a.FT.Apps {
				for j := range a.FT.Apps[i].Args {
					sub(&a.FT.Apps[i].Args[j])
				}
			}
		}
	}
	subAtom(&r.Head)
	for i := range r.Body {
		subAtom(&r.Body[i])
	}
}

// replaceMixedApps rewrites every mixed application of the rule, whose
// arguments are all constants by now, into the corresponding derived pure
// symbol.
func (e *eliminator) replaceMixedApps(r *ast.Rule) error {
	rep := func(a *ast.Atom) error {
		if a.FT == nil {
			return nil
		}
		for i, app := range a.FT.Apps {
			if len(app.Args) == 0 {
				continue
			}
			pure, ok := e.pureApp(app)
			if !ok {
				return fmt.Errorf("internal: mixed argument still variable after instantiation")
			}
			a.FT.Apps[i] = pure
		}
		return nil
	}
	if err := rep(&r.Head); err != nil {
		return err
	}
	for i := range r.Body {
		if err := rep(&r.Body[i]); err != nil {
			return err
		}
	}
	return nil
}

// rule returns all pure instances of r.
func (e *eliminator) rule(r ast.Rule) ([]ast.Rule, error) {
	vars := mixedVars(&r)
	var out []ast.Rule
	var rec func(cur ast.Rule, rest []symbols.VarID) error
	rec = func(cur ast.Rule, rest []symbols.VarID) error {
		if len(rest) == 0 {
			inst := cur.Clone()
			if err := e.replaceMixedApps(&inst); err != nil {
				return err
			}
			out = append(out, inst)
			return nil
		}
		for _, c := range e.domain {
			next := cur.Clone()
			substituteDataVar(&next, rest[0], c)
			if err := rec(next, rest[1:]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(r, vars); err != nil {
		return nil, err
	}
	return out, nil
}
