package parser

import (
	"errors"
	"fmt"
	"slices"
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
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	prog := ast.NewProgram()
	b := newBuilder(p, prog.Tab)
	b.prog = prog
	if err := b.infer(); err != nil {
		return nil, err
	}
	return b.build()
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
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	if len(p.queries) != 1 || len(p.clauses) != 0 || len(p.directives) != 0 {
		return nil, fmt.Errorf("expected exactly one query")
	}
	b := newBuilder(p, tab)
	if err := b.infer(); err != nil {
		return nil, err
	}
	return b.query(&p.queries[0])
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
	if err := p.parseProgram(); err != nil {
		return nil, err
	}
	if len(p.queries) != 0 {
		return nil, ErrNotFacts
	}
	for i := range p.clauses {
		if p.clauses[i].isRule {
			return nil, ErrNotFacts
		}
	}
	b := newBuilder(p, tab)
	if err := b.infer(); err != nil {
		return nil, err
	}
	out := make([]ast.Atom, 0, len(p.clauses))
	for i := range p.clauses {
		a, err := b.fact(&p.clauses[i])
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
	p *parser // the raw tree and the source
	// prog is the program being built; nil for a standalone query, whose
	// predicates then resolve against tab.
	prog *ast.Program
	// tab is where symbols are interned: the program's own table when
	// building a program, or any table (e.g. a query-local overlay) when
	// building a standalone query.
	tab       *symbols.Table
	predState map[predKey]int
	varState  map[string]int

	// The function symbols and constants the builder resolved last: a deep
	// term repeats a functor or two and a handful of constants for hundreds
	// of layers.
	funcs  symCache
	consts symCache
	succ   symbols.FuncID // NoFunc until a numeral or +n needs it
}

// symCache remembers one resolved symbol per slot. The slot is picked by
// the name's length, its last byte and the arity, which tell apart the
// names a deep term repeats (e0 … e5, p0 … p8) without hashing them.
type symCache [16]cachedSym

type cachedSym struct {
	name  string // a substring of the source; "" in an empty slot
	arity int
	id    int32
}

// lookup returns the slot for (name, arity) and whether it holds its id;
// on a miss the slot is the caller's to fill.
func (c *symCache) lookup(name string, arity int) (slot *cachedSym, hit bool) {
	slot = &c[(len(name)*7+int(name[len(name)-1])+arity)&(len(c)-1)]
	return slot, slot.name == name && slot.arity == arity
}

func newBuilder(p *parser, tab *symbols.Table) *builder {
	return &builder{p: p, tab: tab, predState: make(map[predKey]int), varState: make(map[string]int), succ: symbols.NoFunc}
}

// fn interns the function symbol named at src[off:].
func (b *builder) fn(off int, n int32, arity int) symbols.FuncID {
	name := b.p.name(off, n)
	s, hit := b.funcs.lookup(name, arity)
	if !hit {
		s.name, s.arity, s.id = name, arity, int32(b.tab.Func(name, arity))
	}
	return symbols.FuncID(s.id)
}

// constant interns the constant named at src[off:].
func (b *builder) constant(off int, n int32) symbols.ConstID {
	name := b.p.name(off, n)
	s, hit := b.consts.lookup(name, 0)
	if !hit {
		s.name, s.arity, s.id = name, 0, int32(b.tab.Const(name))
	}
	return symbols.ConstID(s.id)
}

// succFn interns succ once per parse.
func (b *builder) succFn() symbols.FuncID {
	if b.succ == symbols.NoFunc {
		b.succ = b.tab.Func(term.SuccName, 0)
	}
	return b.succ
}

// predKey names a predicate the way the source does: by its total argument
// count, before it is known whether the first argument is functional.
type predKey struct {
	name  string
	total int
}

func (k predKey) String() string { return k.name + "/" + strconv.Itoa(k.total) }

func (b *builder) atomKey(a *rawAtom) predKey { return predKey{b.p.name(a.off, a.n), int(a.nargs)} }

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

func (b *builder) at(off int) posn { return posn{src: b.p.src, off: off} }

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
	return t.lo < t.hi || t.plus > 0
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
			if err := b.setVar(b.p.name(t.off, t.n), stateData, at); err != nil {
				return err
			}
		} else if t.plus > 0 || insideApp || t.lo < t.hi {
			if err := b.setVar(b.p.name(t.off, t.n), stateFunctional, at); err != nil {
				return err
			}
		}
	}
	terms := b.p.terms
	for i := t.hi - 1; i >= t.lo; i-- {
		for j := b.p.apps[i].args; j >= 0; j = terms[j].next {
			if a := &terms[j]; a.kind == rVar || a.lo < a.hi {
				if err := b.markDataVars(a, false, true, at); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// infer resolves which predicates carry a functional first argument:
// directives first, then syntactic forcing, then propagation through shared
// variables to a fixpoint; anything still unknown is non-functional.
func (b *builder) infer() error {
	p := b.p
	for _, d := range p.directives {
		key := predKey{d.pred, d.arity}
		s := stateData
		if d.kind == "functional" {
			if d.arity == 0 {
				return fmt.Errorf("%s: @functional %s: a functional predicate needs at least one argument", posn{p.src, d.off, true}, key)
			}
			s = stateFunctional
		}
		if err := b.setPred(key, s, posn{p.src, d.off, true}); err != nil {
			return err
		}
	}

	// Every atom, clauses before queries, a head before its body.
	all := p.order[:0]
	collect := func(cl *rawClause) {
		if cl.head >= 0 {
			all = append(all, cl.head)
		}
		for i := cl.lo; i < cl.hi; i++ {
			all = append(all, i)
		}
	}
	for i := range p.clauses {
		collect(&p.clauses[i])
	}
	for i := range p.queries {
		collect(&p.queries[i])
	}
	p.order = all

	// Syntactic forcing and unconditional variable roles.
	for _, ai := range all {
		a := &p.atoms[ai]
		at := b.at(a.off)
		for i, j := 0, a.args; j >= 0; i, j = i+1, p.terms[j].next {
			t := &p.terms[j]
			if i == 0 && termForcesFunctional(t) {
				if err := b.setPred(b.atomKey(a), stateFunctional, at); err != nil {
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
		for _, ai := range all {
			a := &p.atoms[ai]
			if a.nargs == 0 {
				continue
			}
			key := b.atomKey(a)
			t := &p.terms[a.args]
			ps := b.pred(key)
			if !t.bareVar() {
				if t.plus > 0 && ps == stateUnknown {
					b.predState[key] = stateFunctional
					changed = true
				}
				continue
			}
			name := b.p.name(t.off, t.n)
			vs := b.varState[name]
			switch {
			case ps != stateUnknown && vs == stateUnknown:
				b.varState[name] = ps
				changed = true
			case vs != stateUnknown && ps == stateUnknown:
				b.predState[key] = vs
				changed = true
			case ps != stateUnknown && vs != stateUnknown && ps != vs:
				return fmt.Errorf("%s: variable %s conflicts with predicate %s on functionality", b.at(a.off), name, key)
			}
		}
	}
	return nil
}

func (b *builder) predFunctional(a *rawAtom) bool { return b.pred(b.atomKey(a)) == stateFunctional }

func (b *builder) dterm(t *rawTerm) (ast.DTerm, error) {
	switch {
	case b.p.outerPlus(t) > 0:
		return ast.DTerm{}, fmt.Errorf("%s: '+' is only allowed in functional positions", b.at(b.p.termPos(t)))
	case t.lo < t.hi:
		return ast.DTerm{}, fmt.Errorf("%s: function application %s(...) is only allowed in functional positions",
			b.at(b.p.termPos(t)), b.p.name(b.p.apps[t.lo].off, b.p.apps[t.lo].n))
	case t.kind == rVar:
		return ast.V(b.tab.Var(b.p.name(t.off, t.n))), nil
	case t.kind == rConst:
		return ast.C(b.constant(t.off, t.n)), nil
	}
	return ast.C(b.tab.Const(strconv.Itoa(int(b.p.number(t))))), nil
}

// buildFTerm is fterm; the differential test swaps in the recursive
// construction it replaced.
var buildFTerm = (*builder).fterm

// fterm builds a functional term by appending its applications, innermost
// first, to one slice sized up front: O(depth) time and bytes. (Growing the
// term by ast.FTerm.Apply per layer copied the whole chain at every layer.)
// All non-functional arguments share one backing slice.
func (b *builder) fterm(t *rawTerm) (*ast.FTerm, error) {
	p := b.p
	var num int32 // a numeral's value
	if t.kind == rNum {
		num = p.number(t)
	}
	depth, nargs := int(num)+int(t.plus)+int(t.hi-t.lo), 0
	for i := t.lo; i < t.hi; i++ {
		depth += int(p.apps[i].plus)
		nargs += int(p.apps[i].nargs)
	}
	if depth > MaxTermDepth {
		return nil, p.errTooDeep(p.termPos(t))
	}
	out := &ast.FTerm{Base: symbols.NoVar}
	if depth > 0 {
		out.Apps = make([]ast.FApp, 0, depth)
	}
	succs := func(n int32) {
		if n > 0 {
			s := ast.FApp{Fn: b.succFn()}
			for ; n > 0; n-- {
				out.Apps = append(out.Apps, s)
			}
		}
	}
	switch t.kind {
	case rNum:
		b.succFn() // a literal interns succ even when it is 0
		succs(num)
	case rVar:
		out.Base = b.tab.Var(p.name(t.off, t.n))
	case rConst:
		return nil, fmt.Errorf("%s: constant %s cannot appear in a functional position", b.at(t.off), p.name(t.off, t.n))
	}
	succs(t.plus)
	dargs := make([]ast.DTerm, 0, nargs)
	for i := t.hi - 1; i >= t.lo; i-- {
		app := &p.apps[i]
		lo := len(dargs)
		for j := app.args; j >= 0; j = p.terms[j].next {
			if t := &p.terms[j]; t.kind == rConst && t.lo == t.hi && t.plus == 0 {
				dargs = append(dargs, ast.C(b.constant(t.off, t.n))) // the common case, inline
				continue
			}
			d, err := b.dterm(&p.terms[j])
			if err != nil {
				return nil, err
			}
			dargs = append(dargs, d)
		}
		fn := b.fn(app.off, app.n, int(app.nargs))
		out.Apps = append(out.Apps, ast.FApp{Fn: fn, Args: dargs[lo:len(dargs):len(dargs)]})
		succs(app.plus)
	}
	return out, nil
}

func (b *builder) atom(a *rawAtom) (ast.Atom, error) {
	functional := b.predFunctional(a)
	arity := int(a.nargs)
	if functional {
		arity--
	}
	pred := b.tab.Pred(b.p.name(a.off, a.n), arity, functional)
	out := ast.Atom{Pred: pred}
	j := a.args
	if functional {
		ft, err := buildFTerm(b, &b.p.terms[j])
		if err != nil {
			return ast.Atom{}, err
		}
		out.FT = ft
		j = b.p.terms[j].next
	}
	if j >= 0 {
		out.Args = make([]ast.DTerm, 0, arity)
	}
	for ; j >= 0; j = b.p.terms[j].next {
		d, err := b.dterm(&b.p.terms[j])
		if err != nil {
			return ast.Atom{}, err
		}
		out.Args = append(out.Args, d)
	}
	return out, nil
}

// fact builds a body-less clause, which must be ground.
func (b *builder) fact(cl *rawClause) (ast.Atom, error) {
	head, err := b.atom(&b.p.atoms[cl.head])
	if err != nil {
		return ast.Atom{}, err
	}
	if !head.IsGround() {
		return ast.Atom{}, fmt.Errorf("%s: fact %s is not ground", posn{b.p.src, cl.off, true}, head.Format(b.tab))
	}
	return head, nil
}

func (b *builder) query(cl *rawClause) (*ast.Query, error) {
	q := &ast.Query{Atoms: make([]ast.Atom, 0, cl.hi-cl.lo)}
	for i := cl.lo; i < cl.hi; i++ {
		a, err := b.atom(&b.p.atoms[i])
		if err != nil {
			return nil, err
		}
		q.Atoms = append(q.Atoms, a)
	}
	// Free variables: every named (non-underscore) variable, in order of
	// first occurrence.
	addVar := func(v symbols.VarID) {
		if b.tab.VarName(v)[0] == '_' || slices.Contains(q.Free, v) {
			return
		}
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

func (b *builder) build() (*Result, error) {
	p := b.p
	res := &Result{Program: b.prog}
	for i := range p.clauses {
		cl := &p.clauses[i]
		if !cl.isRule {
			head, err := b.fact(cl)
			if err != nil {
				return nil, err
			}
			b.prog.Facts = append(b.prog.Facts, head)
			continue
		}
		head, err := b.atom(&p.atoms[cl.head])
		if err != nil {
			return nil, err
		}
		r := ast.Rule{Head: head}
		for j := cl.lo; j < cl.hi; j++ {
			a, err := b.atom(&p.atoms[j])
			if err != nil {
				return nil, err
			}
			r.Body = append(r.Body, a)
		}
		b.prog.Rules = append(b.prog.Rules, r)
	}
	for i := range p.queries {
		q, err := b.query(&p.queries[i])
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
