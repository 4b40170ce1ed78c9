package parser

import (
	"errors"
	"fmt"
	"strconv"

	"funcdb/internal/ast"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Result is the output of Parse: a validated program plus any queries that
// appeared in the source.
type Result struct {
	Program *ast.Program
	Queries []ast.Query
}

// Parse parses a complete funcdb source text.
func Parse(src string) (*Result, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	raw, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	prog := ast.NewProgram()
	b := &builder{prog: prog, tab: prog.Tab, predState: make(map[predKey]int), varState: make(map[string]int)}
	if err := b.infer(raw); err != nil {
		return nil, err
	}
	return b.build(raw)
}

// MustParse is Parse for tests and examples with known-good sources.
func MustParse(src string) *Result {
	r, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return r
}

// ParseQuery parses a single "?- ... ." query against an existing program's
// symbol table, using the program to resolve predicate functionality.
func ParseQuery(prog *ast.Program, src string) (*ast.Query, error) {
	return ParseQueryTab(prog.Tab, src)
}

// ParseQueryTab is ParseQuery against a bare symbol table — typically an
// overlay over a frozen snapshot table (symbols.NewTableOver), so that
// parsing a query never mutates shared state. Time and memory are linear in
// len(src): whether a predicate is functional is looked up in tab per atom.
func ParseQueryTab(tab *symbols.Table, src string) (*ast.Query, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	raw, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if len(raw.queries) != 1 || len(raw.clauses) != 0 || len(raw.directives) != 0 {
		return nil, fmt.Errorf("expected exactly one query")
	}
	b := &builder{tab: tab, predState: make(map[predKey]int), varState: make(map[string]int)}
	if err := b.infer(raw); err != nil {
		return nil, err
	}
	return b.query(&raw.queries[0])
}

// ErrNotFacts is ParseFactsTab's error for a text that holds a rule or a
// query.
var ErrNotFacts = errors.New("expected ground facts only")

// ParseFactsTab parses a text of ground facts (functionality directives
// allowed) against an existing symbol table, the way ParseQueryTab parses a
// query: time and memory are linear in len(src) however large the program
// behind tab is. Whether a predicate is functional is looked up in tab; one
// tab has never seen is inferred from the text as Parse would. New symbols
// are interned into tab, also when a later fact fails to build.
func ParseFactsTab(tab *symbols.Table, src string) ([]ast.Atom, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	raw, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if len(raw.queries) != 0 {
		return nil, ErrNotFacts
	}
	for i := range raw.clauses {
		if raw.clauses[i].isRule {
			return nil, ErrNotFacts
		}
	}
	b := &builder{tab: tab, predState: make(map[predKey]int), varState: make(map[string]int)}
	if err := b.infer(raw); err != nil {
		return nil, err
	}
	out := make([]ast.Atom, 0, len(raw.clauses))
	for i := range raw.clauses {
		a, err := b.fact(&raw.clauses[i])
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

const (
	stateUnknown = iota
	stateFunctional
	stateData
)

type builder struct {
	// prog is the program being built; nil for a standalone query, whose
	// predicates then resolve against tab.
	prog *ast.Program
	// tab is where symbols are interned: the program's own table when
	// building a program, or any table (e.g. a query-local overlay) when
	// building a standalone query.
	tab       *symbols.Table
	predState map[predKey]int
	varState  map[string]int
}

// predKey names a predicate the way the source does: by its total argument
// count, before it is known whether the first argument is functional.
type predKey struct {
	name  string
	total int
}

func (k predKey) String() string { return k.name + "/" + strconv.Itoa(k.total) }

func atomKey(a *rawAtom) predKey { return predKey{a.name, len(a.args)} }

// pred returns what is known of a predicate's functionality. A standalone
// query takes it from the table on first mention (the later-interned
// signature wins should a hand-built table hold both).
func (b *builder) pred(key predKey) int {
	s, seen := b.predState[key]
	if !seen && b.prog == nil {
		f, fok := b.tab.LookupPred(key.name, key.total-1, true)
		d, dok := b.tab.LookupPred(key.name, key.total, false)
		switch {
		case fok && (!dok || f > d):
			s = stateFunctional
		case dok:
			s = stateData
		}
		b.predState[key] = s
	}
	return s
}

// posn is where an inference or build error is reported: "line:col", or
// "line N" for a directive. It is formatted only when an error is.
type posn struct{ line, col int }

func (p posn) String() string {
	if p.col == 0 {
		return "line " + strconv.Itoa(p.line)
	}
	return strconv.Itoa(p.line) + ":" + strconv.Itoa(p.col)
}

func (b *builder) setPred(key predKey, s int, at posn) error {
	if cur := b.pred(key); cur != stateUnknown && cur != s {
		return fmt.Errorf("%s: predicate %s is used both with and without a functional argument", at, key)
	}
	b.predState[key] = s
	return nil
}

func (b *builder) setVar(name string, s int, at posn) error {
	cur := b.varState[name]
	if cur != stateUnknown && cur != s {
		return fmt.Errorf("%s: variable %s is used both functionally and non-functionally", at, name)
	}
	b.varState[name] = s
	return nil
}

// termForcesFunctional reports whether a first-argument term syntactically
// forces its predicate to be functional.
func termForcesFunctional(t *rawTerm) bool {
	return len(t.apps) > 0 || t.plus > 0
}

// markDataVars records the roles of variables whose position alone decides
// them: anything outside a functional position is non-functional; a
// variable with +n sugar, or sitting in the first argument of a function
// application (insideApp), is functional regardless of how the enclosing
// predicate resolves. Only a bare variable in an atom's first argument
// stays open, to be settled by predicate propagation.
func (b *builder) markDataVars(t *rawTerm, functionalPos, insideApp bool, at posn) error {
	if t.kind == rVar {
		if !functionalPos {
			if err := b.setVar(t.name, stateData, at); err != nil {
				return err
			}
		} else if t.plus > 0 || insideApp || len(t.apps) > 0 {
			if err := b.setVar(t.name, stateFunctional, at); err != nil {
				return err
			}
		}
	}
	for i := range t.apps {
		for j := range t.apps[i].args {
			if err := b.markDataVars(&t.apps[i].args[j], false, true, at); err != nil {
				return err
			}
		}
	}
	return nil
}

// infer resolves which predicates carry a functional first argument:
// directives first, then syntactic forcing, then propagation through shared
// variables to a fixpoint; anything still unknown is non-functional.
func (b *builder) infer(raw *rawProgram) error {
	for _, d := range raw.directives {
		key := predKey{d.pred, d.arity}
		s := stateData
		if d.kind == "functional" {
			if d.arity == 0 {
				return fmt.Errorf("line %d: @functional %s: a functional predicate needs at least one argument", d.line, key)
			}
			s = stateFunctional
		}
		if err := b.setPred(key, s, posn{line: d.line}); err != nil {
			return err
		}
	}

	all := make([]*rawAtom, 0, 16)
	collect := func(cl *rawClause) {
		if cl.head != nil {
			all = append(all, cl.head)
		}
		for i := range cl.body {
			all = append(all, &cl.body[i])
		}
	}
	for i := range raw.clauses {
		collect(&raw.clauses[i])
	}
	for i := range raw.queries {
		collect(&raw.queries[i])
	}

	// Syntactic forcing and unconditional variable roles.
	for _, a := range all {
		at := posn{a.line, a.col}
		for i := range a.args {
			t := &a.args[i]
			if i == 0 && termForcesFunctional(t) {
				if err := b.setPred(atomKey(a), stateFunctional, at); err != nil {
					return err
				}
			}
			if err := b.markDataVars(t, i == 0, false, at); err != nil {
				return err
			}
		}
	}

	// Propagate through shared first-argument variables to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, a := range all {
			if len(a.args) == 0 {
				continue
			}
			key := atomKey(a)
			t := &a.args[0]
			ps := b.pred(key)
			if !t.bareVar() {
				if t.plus > 0 && ps == stateUnknown {
					b.predState[key] = stateFunctional
					changed = true
				}
				continue
			}
			vs := b.varState[t.name]
			switch {
			case ps != stateUnknown && vs == stateUnknown:
				b.varState[t.name] = ps
				changed = true
			case vs != stateUnknown && ps == stateUnknown:
				b.predState[key] = vs
				changed = true
			case ps != stateUnknown && vs != stateUnknown && ps != vs:
				return fmt.Errorf("%s: variable %s conflicts with predicate %s on functionality", posn{a.line, a.col}, t.name, key)
			}
		}
	}
	return nil
}

func (b *builder) predFunctional(a *rawAtom) bool { return b.pred(atomKey(a)) == stateFunctional }

func (b *builder) dterm(t *rawTerm) (ast.DTerm, error) {
	switch {
	case t.outerPlus() > 0:
		line, col := t.pos()
		return ast.DTerm{}, fmt.Errorf("%d:%d: '+' is only allowed in functional positions", line, col)
	case len(t.apps) > 0:
		line, col := t.pos()
		return ast.DTerm{}, fmt.Errorf("%d:%d: function application %s(...) is only allowed in functional positions",
			line, col, t.apps[len(t.apps)-1].name)
	case t.kind == rVar:
		return ast.V(b.tab.Var(t.name)), nil
	case t.kind == rConst:
		return ast.C(b.tab.Const(t.name)), nil
	}
	return ast.C(b.tab.Const(strconv.Itoa(t.num))), nil
}

// buildFTerm is fterm; the differential test swaps in the recursive
// construction it replaced.
var buildFTerm = (*builder).fterm

// fterm builds a functional term by appending its applications, innermost
// first, to one slice sized up front: O(depth) time and bytes. (Growing the
// term by ast.FTerm.Apply per layer copied the whole chain at every layer.)
// All non-functional arguments share one backing slice.
func (b *builder) fterm(t *rawTerm) (*ast.FTerm, error) {
	depth, nargs := t.plus+len(t.apps), 0
	if t.kind == rNum {
		depth += t.num
	}
	for i := range t.apps {
		depth += t.apps[i].plus
		nargs += len(t.apps[i].args)
	}
	if depth > MaxTermDepth {
		return nil, errTooDeep(t.pos())
	}
	out := &ast.FTerm{Base: symbols.NoVar}
	if depth > 0 {
		out.Apps = make([]ast.FApp, 0, depth)
	}
	succs := func(n int) {
		if n > 0 {
			s := ast.FApp{Fn: b.tab.Func(term.SuccName, 0)}
			for ; n > 0; n-- {
				out.Apps = append(out.Apps, s)
			}
		}
	}
	switch t.kind {
	case rNum:
		b.tab.Func(term.SuccName, 0) // a literal interns succ even when it is 0
		succs(t.num)
	case rVar:
		out.Base = b.tab.Var(t.name)
	case rConst:
		return nil, fmt.Errorf("%d:%d: constant %s cannot appear in a functional position", t.line, t.col, t.name)
	}
	succs(t.plus)
	dargs := make([]ast.DTerm, 0, nargs)
	for i := range t.apps {
		app := &t.apps[i]
		lo := len(dargs)
		for j := range app.args {
			d, err := b.dterm(&app.args[j])
			if err != nil {
				return nil, err
			}
			dargs = append(dargs, d)
		}
		fn := b.tab.Func(app.name, len(app.args))
		out.Apps = append(out.Apps, ast.FApp{Fn: fn, Args: dargs[lo:len(dargs):len(dargs)]})
		succs(app.plus)
	}
	return out, nil
}

func (b *builder) atom(a *rawAtom) (ast.Atom, error) {
	functional := b.predFunctional(a)
	arity := len(a.args)
	if functional {
		arity--
	}
	pred := b.tab.Pred(a.name, arity, functional)
	out := ast.Atom{Pred: pred}
	start := 0
	if functional {
		ft, err := buildFTerm(b, &a.args[0])
		if err != nil {
			return ast.Atom{}, err
		}
		out.FT = ft
		start = 1
	}
	if start < len(a.args) {
		out.Args = make([]ast.DTerm, 0, len(a.args)-start)
	}
	for i := start; i < len(a.args); i++ {
		d, err := b.dterm(&a.args[i])
		if err != nil {
			return ast.Atom{}, err
		}
		out.Args = append(out.Args, d)
	}
	return out, nil
}

// fact builds a body-less clause, which must be ground.
func (b *builder) fact(cl *rawClause) (ast.Atom, error) {
	head, err := b.atom(cl.head)
	if err != nil {
		return ast.Atom{}, err
	}
	if !head.IsGround() {
		return ast.Atom{}, fmt.Errorf("line %d: fact %s is not ground", cl.line, head.Format(b.tab))
	}
	return head, nil
}

func (b *builder) query(cl *rawClause) (*ast.Query, error) {
	q := &ast.Query{}
	seen := make(map[symbols.VarID]bool)
	for i := range cl.body {
		a, err := b.atom(&cl.body[i])
		if err != nil {
			return nil, err
		}
		q.Atoms = append(q.Atoms, a)
	}
	// Free variables: every named (non-underscore) variable, in order of
	// first occurrence.
	addVar := func(v symbols.VarID) {
		name := b.tab.VarName(v)
		if name[0] == '_' || seen[v] {
			return
		}
		seen[v] = true
		q.Free = append(q.Free, v)
	}
	for i := range q.Atoms {
		a := &q.Atoms[i]
		if a.FT != nil && a.FT.HasVarBase() {
			addVar(a.FT.Base)
		}
		if a.FT != nil {
			for _, app := range a.FT.Apps {
				for _, d := range app.Args {
					if d.IsVar() {
						addVar(d.Var)
					}
				}
			}
		}
		for _, d := range a.Args {
			if d.IsVar() {
				addVar(d.Var)
			}
		}
	}
	return q, nil
}

func (b *builder) build(raw *rawProgram) (*Result, error) {
	res := &Result{Program: b.prog}
	for i := range raw.clauses {
		cl := &raw.clauses[i]
		if !cl.isRule {
			head, err := b.fact(cl)
			if err != nil {
				return nil, err
			}
			b.prog.Facts = append(b.prog.Facts, head)
			continue
		}
		head, err := b.atom(cl.head)
		if err != nil {
			return nil, err
		}
		r := ast.Rule{Head: head}
		for j := range cl.body {
			a, err := b.atom(&cl.body[j])
			if err != nil {
				return nil, err
			}
			r.Body = append(r.Body, a)
		}
		b.prog.Rules = append(b.prog.Rules, r)
	}
	for i := range raw.queries {
		q, err := b.query(&raw.queries[i])
		if err != nil {
			return nil, err
		}
		res.Queries = append(res.Queries, *q)
	}
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}
