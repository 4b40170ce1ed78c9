// Package query implements section 5: finite relational specifications of
// infinite query answers.
//
// A functional query is a positive conjunction of atoms with at most one
// functional variable. Its answer is the finite specification (Q(B), T): a
// successor table T over the representative terms and, per representative,
// the QUERY tuples of its slice. It is computed in one of two ways:
//
//   - Incremental (Theorem 5.1): for uniform queries — those whose only
//     non-ground functional term is the bare variable — the query is simply
//     evaluated against every slice of the primary database, yielding
//     (Q(B), T) with the successor mappings unchanged.
//   - Recompute: for arbitrary queries, a fresh QUERY rule is added to the
//     rule set and the specification of the enlarged program is built; its
//     QUERY slices and successor mappings are the answer.
//
// Either way the result is a Specification: an immutable value that any
// number of goroutines read at once. Membership and enumeration go through
// an Answers handle over it, which owns only the term arena its own
// enumerations intern yielded terms into.
//
// Evaluation is written against the Backend interface, so the same code
// runs on a frozen snapshot (lock-free: what the database serves) and on a
// *specgraph.Spec nothing else is using (the enlarged program Compile has
// just built, or a caller-owned one through Incremental and Recompute).
package query

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"funcdb/internal/ast"
	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/obs"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/subst"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// ErrUnsafeQuery reports a query whose free variables do not all occur in
// the body: its answer would be domain-dependent.
var ErrUnsafeQuery = errors.New("query: free variables must occur in the query body")

// Backend is the specification a query is evaluated against, read-only:
// nothing is interned through it. *specgraph.Spec implements it directly;
// core adapts its immutable snapshots.
type Backend interface {
	// Facts reads the atoms and tuples of the slices.
	Facts() *facts.World
	// Names resolves symbol identifiers for rendering.
	Names() *symbols.Table
	// GlobalByPred returns the non-functional facts of predicate p.
	GlobalByPred(p symbols.PredID) []facts.AtomID
	// Successors is the successor table T over the representatives, with
	// each one's state (its slice of the primary database B).
	Successors() *specgraph.Table
}

// IsUniform reports whether every functional term of the query is either
// ground (and free of mixed symbols, so its symbols are the DFA's own) or
// the bare functional variable (no applications above it). Ground terms
// with mixed symbols are handled by Recompute, whose preparation pipeline
// eliminates them.
func IsUniform(q *ast.Query) bool {
	for i := range q.Atoms {
		ft := q.Atoms[i].FT
		if ft == nil {
			continue
		}
		if ft.IsGround() {
			pure := true
			for _, app := range ft.Apps {
				if len(app.Args) != 0 {
					pure = false
				}
			}
			if pure {
				continue
			}
			return false
		}
		if ft.HasVarBase() && len(ft.Apps) == 0 {
			continue
		}
		return false
	}
	return true
}

// FunctionalVar returns the query's functional variable, if any.
func FunctionalVar(q *ast.Query) (symbols.VarID, bool) {
	for i := range q.Atoms {
		ft := q.Atoms[i].FT
		if ft != nil && ft.HasVarBase() {
			return ft.Base, true
		}
	}
	return symbols.NoVar, false
}

// answerTupleBytes is the metered answer-arena cost of one answer tuple,
// accumulated into a specification or yielded by an enumeration.
const answerTupleBytes = 48

// chargeAnswers bills n newly accumulated answer tuples against the work
// budget carried by ctx, if any. (EnumerateContext bills the tuples it
// yields the same way.)
func chargeAnswers(ctx context.Context, n int) error {
	if n <= 0 {
		return nil
	}
	return obs.BudgetFrom(ctx).AddBytes(int64(n) * answerTupleBytes)
}

// Evaluate computes the answer specification of a uniform query by
// evaluating it against each slice of the primary database (Theorem 5.1).
// The successor mappings are reused unchanged: the answer is specified over
// the backend's own table, which any number of specifications share. ctx is
// checked between representatives.
func Evaluate(ctx context.Context, be Backend, q *ast.Query) (*Specification, error) {
	if !IsUniform(q) {
		return nil, fmt.Errorf("query: %s is not uniform; use Recompute", q.Format(be.Names()))
	}
	return evaluate(ctx, be, q)
}

// evaluation joins the atoms of one uniform query against a backend,
// collecting the bindings of the free data variables per representative.
type evaluation struct {
	be  Backend
	w   *facts.World
	tab *specgraph.Table
	cur int32 // the state the functional variable is bound to

	dataFree []symbols.VarID
	args     []symbols.ConstID   // collected tuples, len(dataFree) each
	seen     map[string]struct{} // tuples already collected at the current key
	key      []byte
}

func evaluate(ctx context.Context, be Backend, q *ast.Query) (*Specification, error) {
	tab := be.Successors()
	s := &Specification{q: q, names: be.Names(), tab: tab}
	fnVar, hasFn := FunctionalVar(q)
	ev := &evaluation{be: be, w: be.Facts(), tab: tab, seen: make(map[string]struct{})}
	for _, v := range q.Free {
		if hasFn && v == fnVar {
			s.fn = true
		} else {
			ev.dataFree = append(ev.dataFree, v)
		}
	}
	s.arity = len(ev.dataFree)

	var b subst.Binding
	run := func(state int32) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		before := len(ev.seen)
		ev.cur = state
		b.Reset()
		if err := ev.matchConj(q.Atoms, 0, &b); err != nil {
			return err
		}
		return chargeAnswers(ctx, len(ev.seen)-before)
	}
	switch {
	case s.fn:
		// One tuple list per representative, in precedence order.
		s.off = make([]int32, 1, tab.NumStates()+1)
		for i := range tab.Reps {
			clear(ev.seen)
			if err := run(int32(i)); err != nil {
				return nil, err
			}
			s.off = append(s.off, int32(len(ev.seen))+s.off[i])
		}
	case hasFn:
		// An existential functional variable still ranges over every
		// cluster: one evaluation per representative covers all terms.
		for i := range tab.Reps {
			if err := run(int32(i)); err != nil {
				return nil, err
			}
		}
		s.off = []int32{0, int32(len(ev.seen))}
	default:
		if err := run(specgraph.Root); err != nil {
			return nil, err
		}
		s.off = []int32{0, int32(len(ev.seen))}
	}
	s.args = append([]symbols.ConstID(nil), ev.args...) // kept for the snapshot's life: no spare capacity
	if s.fn {
		s.dist = distances(tab, s.off)
	}
	return s, nil
}

// collect records the binding of the free data variables under b, once per
// key (a representative, or the whole answer when it has no functional
// component), in first-derivation order.
func (ev *evaluation) collect(b *subst.Binding) {
	n := len(ev.args)
	ev.key = ev.key[:0]
	for _, v := range ev.dataFree {
		c, _ := b.Const(v)
		ev.args = append(ev.args, c)
		ev.key = binary.LittleEndian.AppendUint32(ev.key, uint32(c))
	}
	if _, dup := ev.seen[string(ev.key)]; dup {
		ev.args = ev.args[:n]
		return
	}
	ev.seen[string(ev.key)] = struct{}{}
}

// matchConj joins the query atoms against the specification under b.
func (ev *evaluation) matchConj(atoms []ast.Atom, i int, b *subst.Binding) error {
	if i == len(atoms) {
		ev.collect(b)
		return nil
	}
	at := &atoms[i]
	var slice []facts.AtomID
	switch {
	case at.FT == nil:
		// Non-functional atom: read the global facts.
		slice = ev.be.GlobalByPred(at.Pred)
	case at.FT.IsGround():
		// Ground functional term: run the DFA on its symbols.
		state := specgraph.Root
		for _, app := range at.FT.Apps {
			if len(app.Args) != 0 {
				return fmt.Errorf("query: mixed ground term in query; eliminate first")
			}
			var ok bool
			if state, ok = ev.tab.Step(state, app.Fn); !ok {
				// Under range restriction the least fixpoint holds no atom
				// over a term with a symbol outside the alphabet.
				return nil
			}
		}
		slice = ev.w.StateAtoms(ev.tab.State[state])
	default:
		slice = ev.w.StateAtoms(ev.tab.State[ev.cur])
	}
	for _, f := range slice {
		if ev.w.AtomPred(f) != at.Pred {
			continue
		}
		nc, nt := b.Mark()
		if matchTuple(ev.w, at.Args, f, b) {
			if err := ev.matchConj(atoms, i+1, b); err != nil {
				return err
			}
		}
		b.Undo(nc, nt)
	}
	return nil
}

func matchTuple(w *facts.World, pats []ast.DTerm, f facts.AtomID, b *subst.Binding) bool {
	args := w.TupleArgs(w.AtomTuple(f))
	if len(args) != len(pats) {
		return false
	}
	for i, p := range pats {
		if !b.MatchData(p, args[i]) {
			return false
		}
	}
	return true
}

// Compile computes the answer specification of an arbitrary functional
// query, non-uniform ones included, by the paper's general method: a QUERY
// rule for q is added to prog, the enlarged program's specification is
// built, and its successor mappings and QUERY slices are extracted into a
// specification of their own — the enlarged program's engine, universe and
// world are garbage when Compile returns. prog's symbol table must be a
// private clone of base (it gains the QUERY predicate and whatever
// preparation derives); the result names through base plus the few symbols
// an answer could mention that base lacks. The fixpoint engine and
// Algorithm Q run under ctx and its work budget.
func Compile(ctx context.Context, prog *ast.Program, base *symbols.Table, q *ast.Query, engOpts engine.Options, specOpts specgraph.Options) (*Specification, error) {
	s, _, err := recompute(ctx, prog, q, engOpts, specOpts)
	if err != nil {
		return nil, err
	}
	s.names = prog.Tab.Overlay(base)
	s.private = true
	return s, nil
}

// recompute builds the specification of prog enlarged by a QUERY rule for q
// and reads the answer off it: the QUERY atom, evaluated as a uniform query
// against the enlarged specification.
func recompute(ctx context.Context, prog *ast.Program, q *ast.Query, engOpts engine.Options, specOpts specgraph.Options) (*Specification, *specgraph.Spec, error) {
	ctx, csp := obs.StartSpan(ctx, "compile")
	defer csp.End()
	enlarged := prog.Clone()
	fnVar, hasFn := FunctionalVar(q)
	var head ast.Atom
	nData := len(q.Free)
	for _, v := range q.Free {
		if hasFn && v == fnVar {
			head.FT = ast.FVar(fnVar)
			nData--
		} else {
			head.Args = append(head.Args, ast.V(v))
		}
	}
	head.Pred = enlarged.Tab.FreshPred("QUERY", nData, head.FT != nil)
	rule := ast.Rule{Head: head, Body: q.Atoms}
	if !rule.IsRangeRestricted() {
		return nil, nil, ErrUnsafeQuery
	}
	enlarged.Rules = append(enlarged.Rules, rule)

	prep, err := rewrite.Prepare(enlarged)
	if err != nil {
		return nil, nil, err
	}
	eng, err := engine.New(prep, term.NewUniverse(), facts.NewWorld(), engOpts)
	if err != nil {
		return nil, nil, err
	}
	eng.SetContext(ctx)
	sp, err := specgraph.Build(eng, specOpts)
	if err != nil {
		return nil, nil, err
	}
	s, err := evaluate(ctx, sp, &ast.Query{Atoms: []ast.Atom{head}, Free: q.Free})
	if err != nil {
		return nil, nil, err
	}
	s.q = q
	return s, sp, nil
}

// Incremental evaluates a uniform query against a live specification and
// returns a handle on the answer; terms it yields are interned in the
// specification's own universe. Single-goroutine, like the specification.
func Incremental(sp *specgraph.Spec, q *ast.Query) (*Answers, error) {
	s, err := Evaluate(context.Background(), sp, q)
	if err != nil {
		return nil, err
	}
	return &Answers{Spec: sp, spec: s, view: sp.U}, nil
}

// Recompute adds a QUERY rule for q to the original program and builds the
// specification of the enlarged program, which the returned handle keeps
// (Answers.Spec). It handles arbitrary functional queries, including
// non-uniform ones.
func Recompute(prog *ast.Program, q *ast.Query, engOpts engine.Options, specOpts specgraph.Options) (*Answers, error) {
	s, sp, err := recompute(context.Background(), prog, q, engOpts, specOpts)
	if err != nil {
		return nil, err
	}
	return &Answers{Spec: sp, spec: s, view: sp.U}, nil
}
