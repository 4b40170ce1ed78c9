// Package topdown is a goal-directed, tabled evaluator for prepared
// functional programs: the second baseline next to the bottom-up evaluator
// of internal/fixpoint.
//
// A subgoal is a whole slice: the pair (predicate, ground term). Proving
// P(t, ā) demands the table of (P, t) and, transitively, the tables its
// producing rules read — the slices at t, at t's children f(t) (for rules
// whose head sits one level up) and at t's parent (for downward rules), the
// ground-term slices, and the non-functional facts. Demanded tables are
// saturated to a mutual fixpoint. Against the full bottom-up enumeration
// this explores only the region of the term tree the goal actually touches,
// which on branching workloads is exponentially smaller.
//
// Like any depth-bounded method it is sound but complete only under
// conditions: the chase is cut at Options.MaxDepth (downward rules can
// demand ever deeper terms) and rules that derive non-functional or
// ground-term facts from an unconstrained functional variable would need a
// witness search, which is restricted to the demanded region. Complete()
// reports whether a run was exact; the exact reference is internal/engine.
package topdown

import (
	"context"
	"fmt"

	"funcdb/internal/ast"
	"funcdb/internal/facts"
	"funcdb/internal/normform"
	"funcdb/internal/rewrite"
	"funcdb/internal/subst"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Options bound the evaluation.
type Options struct {
	// MaxDepth bounds the depth of demanded terms. 0 means "depth of the
	// goal plus DefaultSlack".
	MaxDepth int
	// MaxTables aborts when more tables than this are demanded (0 = no
	// limit).
	MaxTables int
}

// DefaultSlack is how far above the goal term the chase may climb when
// Options.MaxDepth is unset.
const DefaultSlack = 16

// Stats reports the work done.
type Stats struct {
	Tables  int // tables demanded
	Rounds  int // saturation rounds
	Firings int // successful rule matches
}

type tableKey struct {
	pred symbols.PredID
	t    term.Term // term.None for non-functional predicates
}

// Evaluator holds the demanded tables of one or more Prove calls; tables
// are shared across calls, so related goals amortize.
type Evaluator struct {
	prep *rewrite.Prepared
	u    *term.Universe
	w    *facts.World
	comp *normform.Compiled

	opts     Options
	maxDepth int

	tables   map[tableKey]*facts.Set
	demanded []tableKey
	baseFn   map[tableKey][]facts.AtomID // program facts per table
	baseData map[symbols.PredID][]facts.AtomID

	hasWitnessRules bool
	depthCapped     bool
	stats           Stats
	ctx             context.Context
}

// SetContext installs a cancellation context checked once per saturation
// round. Prove and Slice abort with the context's error once it expires;
// the evaluator stays usable, the next call resumes the tables.
func (ev *Evaluator) SetContext(ctx context.Context) { ev.ctx = ctx }

// New compiles a goal-directed evaluator.
func New(prep *rewrite.Prepared, u *term.Universe, w *facts.World, opts Options) (*Evaluator, error) {
	comp, err := normform.Compile(prep, u)
	if err != nil {
		return nil, err
	}
	ev := &Evaluator{
		prep:     prep,
		u:        u,
		w:        w,
		comp:     comp,
		opts:     opts,
		tables:   make(map[tableKey]*facts.Set),
		baseFn:   make(map[tableKey][]facts.AtomID),
		baseData: make(map[symbols.PredID][]facts.AtomID),
	}
	for i := range comp.Node {
		h := comp.Node[i].Head
		if h.Lvl == normform.Data || h.Lvl == normform.Ground {
			ev.hasWitnessRules = true
		}
	}
	for i := range prep.Program.Facts {
		f := &prep.Program.Facts[i]
		consts := make([]symbols.ConstID, len(f.Args))
		for j, d := range f.Args {
			consts[j] = d.Const
		}
		a := w.Atom(f.Pred, w.Tuple(consts))
		if f.FT == nil {
			ev.baseData[f.Pred] = append(ev.baseData[f.Pred], a)
			continue
		}
		t, ok := subst.GroundFTerm(u, f.FT)
		if !ok {
			return nil, fmt.Errorf("topdown: fact %s is not ground and pure", f.Format(prep.Program.Tab))
		}
		ev.baseFn[tableKey{f.Pred, t}] = append(ev.baseFn[tableKey{f.Pred, t}], a)
	}
	return ev, nil
}

// Complete reports whether every answer so far is exact: the depth cap was
// never hit and the program has no rules needing a witness search.
func (ev *Evaluator) Complete() bool { return !ev.depthCapped && !ev.hasWitnessRules }

// Stats returns work counters.
func (ev *Evaluator) Stats() Stats {
	ev.stats.Tables = len(ev.demanded)
	return ev.stats
}

// demand returns the table for key, creating and scheduling it when new.
// Demands beyond the depth bound return a frozen empty table and mark the
// run incomplete.
func (ev *Evaluator) demand(key tableKey) *facts.Set {
	if tb, ok := ev.tables[key]; ok {
		return tb
	}
	if key.t != term.None && ev.u.Depth(key.t) > ev.maxDepth {
		ev.depthCapped = true
		dead := facts.NewSet()
		ev.tables[key] = dead
		return dead
	}
	tb := facts.NewSet()
	for _, a := range ev.baseFn[key] {
		tb.Add(ev.w, a)
	}
	if key.t == term.None {
		for _, a := range ev.baseData[key.pred] {
			tb.Add(ev.w, a)
		}
	}
	ev.tables[key] = tb
	ev.demanded = append(ev.demanded, key)
	return tb
}

// Prove decides pred(t, args); for non-functional predicates pass
// term.None.
func (ev *Evaluator) Prove(pred symbols.PredID, t term.Term, args []symbols.ConstID) (bool, error) {
	ev.maxDepth = ev.opts.MaxDepth
	if ev.maxDepth == 0 {
		d := 0
		if t != term.None {
			d = ev.u.Depth(t)
		}
		ev.maxDepth = d + DefaultSlack
	}
	ev.demand(tableKey{pred, t})
	if err := ev.saturate(); err != nil {
		return false, err
	}
	return ev.tables[tableKey{pred, t}].Has(ev.w, ev.w.Atom(pred, ev.w.Tuple(args))), nil
}

// Slice computes the entire slice of pred at t — every tuple ā with
// pred(t, ā) in the demanded-region fixpoint — as the goal-directed
// counterpart of an all-answers query at one term.
func (ev *Evaluator) Slice(pred symbols.PredID, t term.Term) ([]facts.TupleID, error) {
	ev.maxDepth = ev.opts.MaxDepth
	if ev.maxDepth == 0 {
		d := 0
		if t != term.None {
			d = ev.u.Depth(t)
		}
		ev.maxDepth = d + DefaultSlack
	}
	tb := ev.demand(tableKey{pred, t})
	if err := ev.saturate(); err != nil {
		return nil, err
	}
	var out []facts.TupleID
	for _, a := range tb.ByPred(pred) {
		out = append(out, ev.w.AtomTuple(a))
	}
	return out, nil
}

// saturate runs the demanded tables to a mutual fixpoint.
func (ev *Evaluator) saturate() error {
	for {
		if ev.ctx != nil {
			if err := ev.ctx.Err(); err != nil {
				return err
			}
		}
		ev.stats.Rounds++
		changed := false
		for i := 0; i < len(ev.demanded); i++ { // grows during the loop
			key := ev.demanded[i]
			if ev.opts.MaxTables > 0 && len(ev.demanded) > ev.opts.MaxTables {
				return fmt.Errorf("topdown: more than %d tables demanded", ev.opts.MaxTables)
			}
			if ev.produce(key) {
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
}

// produce applies every rule that can put facts into the table of key.
func (ev *Evaluator) produce(key tableKey) bool {
	changed := false
	if key.t == term.None {
		// Non-functional table: global rules with a matching data head,
		// plus witness-search rules over the demanded region.
		for i := range ev.comp.Global {
			r := &ev.comp.Global[i]
			if r.Head.Lvl == normform.Data && r.Head.Pred == key.pred {
				if ev.applyAt(r, term.None, key) {
					changed = true
				}
			}
		}
		for i := range ev.comp.Node {
			r := &ev.comp.Node[i]
			if r.Head.Lvl == normform.Data && r.Head.Pred == key.pred {
				if ev.witnessSearch(r, key) {
					changed = true
				}
			}
		}
		return changed
	}
	for i := range ev.comp.Node {
		r := &ev.comp.Node[i]
		if r.Head.Pred != key.pred {
			continue
		}
		switch r.Head.Lvl {
		case normform.Self:
			if ev.applyAt(r, key.t, key) {
				changed = true
			}
		case normform.Child:
			if key.t != term.Zero && ev.u.Top(key.t) == r.Head.Fn {
				if ev.applyAt(r, ev.u.Child(key.t), key) {
					changed = true
				}
			}
		case normform.Ground:
			if r.Head.GroundTerm == key.t {
				if r.IsNode() {
					if ev.witnessSearch(r, key) {
						changed = true
					}
				} else if ev.applyAt(r, term.None, key) {
					changed = true
				}
			}
		}
	}
	for i := range ev.comp.Global {
		r := &ev.comp.Global[i]
		if r.Head.Lvl == normform.Ground && r.Head.Pred == key.pred && r.Head.GroundTerm == key.t {
			if ev.applyAt(r, term.None, key) {
				changed = true
			}
		}
	}
	return changed
}

// witnessSearch instantiates a rule with an unconstrained functional
// variable at every functional term currently demanded. Sound; complete
// only when a witness lies in the demanded region.
func (ev *Evaluator) witnessSearch(r *normform.Rule, sink tableKey) bool {
	changed := false
	for i := 0; i < len(ev.demanded); i++ {
		k := ev.demanded[i]
		if k.t == term.None {
			continue
		}
		if ev.applyAt(r, k.t, sink) {
			changed = true
		}
	}
	return changed
}

// applyAt joins r's body with the functional variable bound to at (or with
// no functional variable when at == term.None) and inserts matching heads
// into the sink table.
func (ev *Evaluator) applyAt(r *normform.Rule, at term.Term, sink tableKey) bool {
	changed := false
	var b subst.Binding
	var rec func(i int)
	rec = func(i int) {
		if i == len(r.Body) {
			ev.stats.Firings++
			if ev.emit(r, sink, &b) {
				changed = true
			}
			return
		}
		l := &r.Body[i]
		var src *facts.Set
		switch l.Lvl {
		case normform.Data:
			src = ev.demand(tableKey{l.Pred, term.None})
		case normform.Ground:
			src = ev.demand(tableKey{l.Pred, l.GroundTerm})
		case normform.Self:
			if at == term.None {
				return
			}
			src = ev.demand(tableKey{l.Pred, at})
		case normform.Child:
			if at == term.None {
				return
			}
			src = ev.demand(tableKey{l.Pred, ev.u.Apply(l.Fn, at)})
		}
		for _, a := range src.ByPred(l.Pred) {
			nc, nt := b.Mark()
			if ev.matchArgs(l.Args, a, &b) {
				rec(i + 1)
			}
			b.Undo(nc, nt)
		}
	}
	rec(0)
	return changed
}

func (ev *Evaluator) matchArgs(pats []ast.DTerm, a facts.AtomID, b *subst.Binding) bool {
	args := ev.w.TupleArgs(ev.w.AtomTuple(a))
	if len(args) != len(pats) {
		return false
	}
	for i, pat := range pats {
		if !b.MatchData(pat, args[i]) {
			return false
		}
	}
	return true
}

func (ev *Evaluator) emit(r *normform.Rule, sink tableKey, b *subst.Binding) bool {
	consts := make([]symbols.ConstID, len(r.Head.Args))
	for i, d := range r.Head.Args {
		c, ok := b.ApplyData(d)
		if !ok {
			return false
		}
		consts[i] = c
	}
	return ev.tables[sink].Add(ev.w, ev.w.Atom(r.Head.Pred, ev.w.Tuple(consts)))
}
