// Package normform compiles prepared (normal, mixed-free) rules into the
// level-classified form shared by the exact engine (internal/engine) and
// the goal-directed evaluator (internal/topdown).
//
// Every literal of a normal rule lives at one of four levels relative to
// the rule's functional variable s: non-functional (Data), at a fully
// ground term (Ground), at s itself (Self), or at f(s) for a single pure
// symbol f (Child).
//
// Compile also fixes each rule's join plan: its data variables are numbered
// into registers, its body is put in the order it is joined in, and every
// argument position says whether matching it compares with a constant,
// compares with a register or writes one. An evaluator runs a rule as a loop
// over that plan, with no binding environment to build or unwind.
package normform

import (
	"fmt"
	"slices"
	"sort"

	"funcdb/internal/ast"
	"funcdb/internal/rewrite"
	"funcdb/internal/subst"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Level classifies where a literal lives relative to the functional
// variable.
type Level int8

// The four levels.
const (
	Data Level = iota
	Ground
	Self
	Child
)

// Lit is a compiled literal.
type Lit struct {
	Lvl  Level
	Pred symbols.PredID
	// Fn is the symbol above s for Child literals.
	Fn symbols.FuncID
	// GroundTerm is the interned term for Ground literals.
	GroundTerm term.Term
	// Args are the non-functional argument patterns.
	Args []ast.DTerm
	// Plan is Args as the join reads them, position by position.
	Plan []Arg
}

// Arg is one argument position of a literal in a rule's join plan.
type Arg struct {
	// Reg is the register of the variable standing here, -1 for a constant.
	Reg int
	// Const is the constant standing here when Reg is -1.
	Const symbols.ConstID
	// Bind marks a variable's first occurrence in join order: matching the
	// position writes the register. Every later occurrence — in a later
	// literal, further right in the same one, or in the head — reads it.
	Bind bool
}

// Rule is a compiled rule. Node rules mention the functional variable
// somewhere; global rules touch only Data and Ground literals.
type Rule struct {
	// Body is in join order: at each step the literal with the most argument
	// positions already fixed — constants and variables bound by the literals
	// before it — comes next, ties in textual order. A literal with every
	// position fixed is an existence test and so runs before any scan it
	// could cut short.
	Body []Lit
	Head Lit
	Src  *ast.Rule
	// Regs is the number of registers the plan uses.
	Regs int
	// Fired is set by an evaluator once the body has matched somewhere.
	Fired bool
}

// plan orders the body and fills in every literal's Plan.
func (r *Rule) plan() error {
	// regs[k] is the variable register k holds: a rule has a handful.
	var buf [8]symbols.VarID
	regs := buf[:0]
	fixed := func(l *Lit) (n int) {
		for _, d := range l.Args {
			if !d.IsVar() || slices.Index(regs, d.Var) >= 0 {
				n++
			}
		}
		return n
	}
	// arg compiles one position; ok is false for a variable seen for the
	// first time where it may not be bound.
	arg := func(d ast.DTerm, bind bool) (a Arg, ok bool) {
		if !d.IsVar() {
			return Arg{Reg: -1, Const: d.Const}, true
		}
		if reg := slices.Index(regs, d.Var); reg >= 0 {
			return Arg{Reg: reg}, true
		}
		if bind {
			regs = append(regs, d.Var)
		}
		return Arg{Reg: len(regs) - 1, Bind: true}, bind
	}
	n := len(r.Head.Args)
	for i := range r.Body {
		n += len(r.Body[i].Args)
	}
	plans := make([]Arg, n) // every literal's Plan, one after another
	for i := range r.Body {
		best := i
		for j := i + 1; j < len(r.Body); j++ {
			if fixed(&r.Body[j]) > fixed(&r.Body[best]) {
				best = j
			}
		}
		l := r.Body[best]
		copy(r.Body[i+1:best+1], r.Body[i:best])
		l.Plan, plans = plans[:len(l.Args):len(l.Args)], plans[len(l.Args):]
		for k, d := range l.Args {
			l.Plan[k], _ = arg(d, true)
		}
		r.Body[i] = l
	}
	r.Head.Plan = plans
	for k, d := range r.Head.Args {
		var ok bool
		if r.Head.Plan[k], ok = arg(d, false); !ok {
			return fmt.Errorf("head variable is bound by no body literal")
		}
	}
	r.Regs = len(regs)
	return nil
}

// IsNode reports whether the rule mentions the functional variable.
func (r *Rule) IsNode() bool {
	if r.Head.Lvl == Self || r.Head.Lvl == Child {
		return true
	}
	for i := range r.Body {
		if r.Body[i].Lvl == Self || r.Body[i].Lvl == Child {
			return true
		}
	}
	return false
}

// Compiled is the result of Compile.
type Compiled struct {
	// Node holds the rules that mention the functional variable; Global
	// the rest.
	Node, Global []Rule
	// GroundTerms lists the distinct ground terms mentioned by rules, in
	// precedence order.
	GroundTerms []term.Term
	// PushFns is the set of symbols occurring in some Child-level head.
	PushFns map[symbols.FuncID]bool
}

// Compile translates the prepared program's rules.
func Compile(prep *rewrite.Prepared, u *term.Universe) (*Compiled, error) {
	out := &Compiled{PushFns: make(map[symbols.FuncID]bool), Node: make([]Rule, 0, len(prep.Program.Rules))}
	seenGround := make(map[term.Term]bool)

	compileAtom := func(a *ast.Atom) (Lit, error) {
		l := Lit{Pred: a.Pred, Args: a.Args}
		switch {
		case a.FT == nil:
			l.Lvl = Data
		case a.FT.IsGround():
			t, ok := subst.GroundFTerm(u, a.FT)
			if !ok {
				return Lit{}, fmt.Errorf("mixed ground term survived elimination")
			}
			l.Lvl = Ground
			l.GroundTerm = t
			if !seenGround[t] {
				seenGround[t] = true
				out.GroundTerms = append(out.GroundTerms, t)
			}
		case a.FT.HasVarBase() && a.FT.Depth() == 0:
			l.Lvl = Self
		case a.FT.HasVarBase() && a.FT.Depth() == 1:
			if len(a.FT.Apps[0].Args) != 0 {
				return Lit{}, fmt.Errorf("mixed symbol survived elimination")
			}
			l.Lvl = Child
			l.Fn = a.FT.Apps[0].Fn
		default:
			return Lit{}, fmt.Errorf("atom is not normal")
		}
		return l, nil
	}

	for i := range prep.Program.Rules {
		r := &prep.Program.Rules[i]
		cr := Rule{Src: r, Body: make([]Lit, 0, len(r.Body))}
		h, err := compileAtom(&r.Head)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.Format(prep.Program.Tab), err)
		}
		cr.Head = h
		if h.Lvl == Child {
			out.PushFns[h.Fn] = true
		}
		for j := range r.Body {
			bl, err := compileAtom(&r.Body[j])
			if err != nil {
				return nil, fmt.Errorf("rule %s: %w", r.Format(prep.Program.Tab), err)
			}
			cr.Body = append(cr.Body, bl)
		}
		if err := cr.plan(); err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.Format(prep.Program.Tab), err)
		}
		if cr.IsNode() {
			out.Node = append(out.Node, cr)
		} else {
			out.Global = append(out.Global, cr)
		}
	}
	sort.Slice(out.GroundTerms, func(i, j int) bool {
		return u.Compare(out.GroundTerms[i], out.GroundTerms[j]) < 0
	})
	return out, nil
}
