// Package ast defines the abstract syntax of functional deductive databases
// (section 2.1 of the paper): functional and non-functional terms, atoms,
// Horn rules, facts, queries and whole programs.
//
// A functional predicate carries exactly one functional argument in a fixed
// (first) position, held separately from its non-functional arguments. A
// functional term is a chain of function-symbol applications over either the
// functional constant 0 or a functional variable; mixed (k-ary) function
// symbols additionally take non-functional arguments, and are compiled away
// by package rewrite before evaluation.
package ast

import (
	"fmt"
	"strconv"
	"strings"

	"funcdb/internal/symbols"
)

// DTerm is a non-functional (data) term: either a variable or a constant.
// The zero value is invalid; build with V or C.
type DTerm struct {
	Var   symbols.VarID
	Const symbols.ConstID
}

// V returns a variable data term.
func V(v symbols.VarID) DTerm { return DTerm{Var: v, Const: symbols.NoConst} }

// C returns a constant data term.
func C(c symbols.ConstID) DTerm { return DTerm{Var: symbols.NoVar, Const: c} }

// IsVar reports whether d is a variable.
func (d DTerm) IsVar() bool { return d.Var != symbols.NoVar }

// Format renders d using the names in tab.
func (d DTerm) Format(tab *symbols.Table) string {
	if d.IsVar() {
		return tab.VarName(d.Var)
	}
	return tab.ConstName(d.Const)
}

// FApp is one function application layer of a functional term. Args is
// empty for pure (unary) function symbols and carries the non-functional
// arguments of mixed symbols.
type FApp struct {
	Fn   symbols.FuncID
	Args []DTerm
}

// FTerm is a functional term: Apps applied innermost-first over Base.
// Base == symbols.NoVar denotes the functional constant 0; otherwise Base is
// a functional variable. ext(0, x) is FTerm{Base: NoVar, Apps:
// [{ext, [x]}]}; succ(t) is FTerm{Base: t, Apps: [{succ, nil}]}.
type FTerm struct {
	Base symbols.VarID
	Apps []FApp
}

// FVar returns the bare functional variable v as a term.
func FVar(v symbols.VarID) *FTerm { return &FTerm{Base: v} }

// FZero returns the functional constant 0 as a term.
func FZero() *FTerm { return &FTerm{Base: symbols.NoVar} }

// Apply returns a copy of t with one more application f(args...) on top.
// It copies all of t.Apps, O(len): fine for the one-layer patterns of
// package rewrite, quadratic if called in a loop to grow a term — append to
// Apps instead, as the parser does.
func (t *FTerm) Apply(f symbols.FuncID, args ...DTerm) *FTerm {
	apps := make([]FApp, len(t.Apps)+1)
	copy(apps, t.Apps)
	apps[len(t.Apps)] = FApp{Fn: f, Args: args}
	return &FTerm{Base: t.Base, Apps: apps}
}

// Depth returns the number of function applications in t.
func (t *FTerm) Depth() int { return len(t.Apps) }

// HasVarBase reports whether t is built over a functional variable.
func (t *FTerm) HasVarBase() bool { return t.Base != symbols.NoVar }

// IsGround reports whether t contains no variables at all, functional or
// non-functional.
func (t *FTerm) IsGround() bool {
	if t.HasVarBase() {
		return false
	}
	for _, a := range t.Apps {
		for _, d := range a.Args {
			if d.IsVar() {
				return false
			}
		}
	}
	return true
}

// GroundPrefixDepth returns the depth of the largest fully ground subterm of
// t: the number of innermost applications (over base 0) whose arguments are
// all constants. It is 0 when the base is a variable. This is the quantity
// the paper's parameter c aggregates over a program (section 2.5).
func (t *FTerm) GroundPrefixDepth() int {
	if t.HasVarBase() {
		return 0
	}
	d := 0
	for _, a := range t.Apps {
		for _, arg := range a.Args {
			if arg.IsVar() {
				return d
			}
		}
		d++
	}
	return d
}

// Clone returns a deep copy of t.
func (t *FTerm) Clone() *FTerm {
	apps := make([]FApp, len(t.Apps))
	for i, a := range t.Apps {
		apps[i] = FApp{Fn: a.Fn, Args: append([]DTerm(nil), a.Args...)}
	}
	return &FTerm{Base: t.Base, Apps: apps}
}

// Format renders t using the names in tab, printing succ-chains over 0 or a
// variable in the paper's +n sugar.
func (t *FTerm) Format(tab *symbols.Table) string {
	base := "0"
	if t.HasVarBase() {
		base = tab.VarName(t.Base)
	}
	// Count a trailing run of pure succ applications for +n sugar.
	succ, hasSucc := tab.LookupFunc("succ", 0)
	run := 0
	if hasSucc {
		for i := len(t.Apps) - 1; i >= 0; i-- {
			if t.Apps[i].Fn != succ {
				break
			}
			run++
		}
	}
	core := t.Apps[:len(t.Apps)-run]
	if run > 0 && len(core) == 0 && !t.HasVarBase() {
		return strconv.Itoa(run)
	}
	// One pass out and one back in, so printing is linear in the depth.
	var b strings.Builder
	for i := len(core) - 1; i >= 0; i-- {
		b.WriteString(tab.FuncName(core[i].Fn))
		b.WriteByte('(')
	}
	b.WriteString(base)
	for _, a := range core {
		for _, arg := range a.Args {
			b.WriteString(", ")
			b.WriteString(arg.Format(tab))
		}
		b.WriteByte(')')
	}
	if run > 0 {
		b.WriteByte('+')
		b.WriteString(strconv.Itoa(run))
	}
	return b.String()
}

// Atom is a functional or non-functional atom. FT is nil exactly when the
// predicate is non-functional; Args are the non-functional arguments.
type Atom struct {
	Pred symbols.PredID
	FT   *FTerm
	Args []DTerm
}

// IsFunctional reports whether a has a functional argument.
func (a *Atom) IsFunctional() bool { return a.FT != nil }

// IsGround reports whether a contains no variables.
func (a *Atom) IsGround() bool {
	if a.FT != nil && !a.FT.IsGround() {
		return false
	}
	for _, d := range a.Args {
		if d.IsVar() {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of a.
func (a Atom) Clone() Atom {
	out := Atom{Pred: a.Pred, Args: append([]DTerm(nil), a.Args...)}
	if a.FT != nil {
		out.FT = a.FT.Clone()
	}
	return out
}

// Format renders a using the names in tab. Atoms without arguments print
// as the bare predicate name, matching the concrete syntax.
func (a *Atom) Format(tab *symbols.Table) string {
	var b strings.Builder
	b.WriteString(tab.PredName(a.Pred))
	if a.FT == nil && len(a.Args) == 0 {
		return b.String()
	}
	b.WriteByte('(')
	first := true
	if a.FT != nil {
		b.WriteString(a.FT.Format(tab))
		first = false
	}
	for _, d := range a.Args {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(d.Format(tab))
	}
	b.WriteByte(')')
	return b.String()
}

// Rule is a Horn rule Body -> Head.
type Rule struct {
	Head Atom
	Body []Atom
}

// Clone returns a deep copy of r.
func (r Rule) Clone() Rule {
	out := Rule{Head: r.Head.Clone()}
	out.Body = make([]Atom, len(r.Body))
	for i, a := range r.Body {
		out.Body[i] = a.Clone()
	}
	return out
}

// Format renders r using the names in tab, in the surface syntax
// "B1, B2 -> H." (or "H." for a bodiless rule).
func (r *Rule) Format(tab *symbols.Table) string {
	if len(r.Body) == 0 {
		return r.Head.Format(tab) + "."
	}
	parts := make([]string, len(r.Body))
	for i := range r.Body {
		parts[i] = r.Body[i].Format(tab)
	}
	return strings.Join(parts, ", ") + " -> " + r.Head.Format(tab) + "."
}

// Query is a positive conjunctive query (section 5): an existentially
// quantified conjunction of atoms with at most one functional variable.
// Variables listed in Free are the answer variables; all others are
// existentially quantified.
type Query struct {
	Atoms []Atom
	Free  []symbols.VarID
}

// Format renders q using the names in tab.
func (q *Query) Format(tab *symbols.Table) string {
	parts := make([]string, len(q.Atoms))
	for i := range q.Atoms {
		parts[i] = q.Atoms[i].Format(tab)
	}
	return "?- " + strings.Join(parts, ", ") + "."
}

// Program is a functional deductive database: a set of rules and a set of
// ground facts over a shared symbol table.
type Program struct {
	Tab   *symbols.Table
	Rules []Rule
	Facts []Atom
}

// NewProgram returns an empty program over a fresh symbol table.
func NewProgram() *Program {
	return &Program{Tab: symbols.NewTable()}
}

// Clone returns a deep copy of p sharing the same symbol table. Sharing the
// table is intentional: transformations add derived symbols to the same
// namespace.
func (p *Program) Clone() *Program {
	out := &Program{Tab: p.Tab}
	out.Rules = make([]Rule, len(p.Rules))
	for i, r := range p.Rules {
		out.Rules[i] = r.Clone()
	}
	out.Facts = make([]Atom, len(p.Facts))
	for i, f := range p.Facts {
		out.Facts[i] = f.Clone()
	}
	return out
}

// Format renders the whole program in surface syntax. Functionality
// directives are emitted for every functional predicate so that reparsing
// never depends on inference succeeding.
func (p *Program) Format() string {
	var b strings.Builder
	seen := make(map[symbols.PredID]bool)
	p.Atoms(func(a *Atom) {
		if seen[a.Pred] {
			return
		}
		seen[a.Pred] = true
		info := p.Tab.PredInfo(a.Pred)
		if info.Functional {
			fmt.Fprintf(&b, "@functional %s/%d.\n", info.Name, info.Arity+1)
		}
	})
	for i := range p.Facts {
		b.WriteString(p.Facts[i].Format(p.Tab))
		b.WriteString(".\n")
	}
	for i := range p.Rules {
		b.WriteString(p.Rules[i].Format(p.Tab))
		b.WriteByte('\n')
	}
	return b.String()
}

// Atoms yields every atom of the program: all facts, then heads and bodies
// of all rules.
func (p *Program) Atoms(yield func(*Atom)) {
	for i := range p.Facts {
		yield(&p.Facts[i])
	}
	for i := range p.Rules {
		yield(&p.Rules[i].Head)
		for j := range p.Rules[i].Body {
			yield(&p.Rules[i].Body[j])
		}
	}
}

// GroundDepth returns the paper's parameter c: the depth of the largest
// fully ground functional term occurring in the program's rules or facts
// (0 if there is none).
func (p *Program) GroundDepth() int {
	c := 0
	p.Atoms(func(a *Atom) {
		if a.FT != nil {
			if d := a.FT.GroundPrefixDepth(); d > c {
				c = d
			}
		}
	})
	return c
}

// HasMixed reports whether any mixed (data-arity >= 1) function symbol
// occurs in the program.
func (p *Program) HasMixed() bool {
	mixed := false
	p.Atoms(func(a *Atom) {
		if a.FT == nil {
			return
		}
		for _, app := range a.FT.Apps {
			if p.Tab.FuncInfo(app.Fn).DataArity > 0 {
				mixed = true
			}
		}
	})
	return mixed
}

// FuncsUsed returns the set of function symbols occurring in the program,
// in interning order.
func (p *Program) FuncsUsed() []symbols.FuncID {
	seen := make(map[symbols.FuncID]bool)
	var order []symbols.FuncID
	p.Atoms(func(a *Atom) {
		if a.FT == nil {
			return
		}
		for _, app := range a.FT.Apps {
			if !seen[app.Fn] {
				seen[app.Fn] = true
				order = append(order, app.Fn)
			}
		}
	})
	return order
}

// IsTemporal reports whether the program is a temporal deductive database in
// the sense of [CI88]: the only function symbol used is the temporal
// successor (+1).
func (p *Program) IsTemporal() bool {
	succ, ok := p.Tab.LookupFunc("succ", 0)
	if !ok {
		// No succ symbol interned: temporal iff no function symbols at all.
		return len(p.FuncsUsed()) == 0
	}
	for _, f := range p.FuncsUsed() {
		if f != succ {
			return false
		}
	}
	return true
}

// ConstsUsed returns the set of data constants occurring in the program, in
// interning order.
func (p *Program) ConstsUsed() []symbols.ConstID {
	seen := make(map[symbols.ConstID]bool)
	var order []symbols.ConstID
	add := func(d DTerm) {
		if !d.IsVar() && !seen[d.Const] {
			seen[d.Const] = true
			order = append(order, d.Const)
		}
	}
	p.Atoms(func(a *Atom) {
		for _, d := range a.Args {
			add(d)
		}
		if a.FT != nil {
			for _, app := range a.FT.Apps {
				for _, d := range app.Args {
					add(d)
				}
			}
		}
	})
	return order
}
