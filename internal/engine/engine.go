// Package engine computes exact slices of the (generally infinite) least
// fixpoint of a prepared functional program, and with them the state
// equivalence relation ~ of section 3.1.
//
// Facts can flow both up (P(s) -> Q(f(s))) and down (P(f(s)) -> Q(s)) the
// tree of ground functional terms, so no fixed-depth truncation is exact.
// The engine instead runs a chaotic least-fixpoint iteration over
//
//   - a finite anchor region: every prefix of a ground term mentioned by the
//     program (facts and ground atoms in rules), and every sibling f(t) of
//     one of those, g(t), that some rule derives at from g(t)'s facts, each
//     with a concrete, growing fact set; and
//   - memoized cells ChildState(f, parentState): the exact fact set of a
//     child reached by symbol f from a node with the given (frozen) state,
//     in an anchor-free subtree. Cell contents depend only on the key, which
//     is what Lemma 3.1 of the paper (equivalent terms have equivalent
//     successors) guarantees.
//
// Soundness of the memoization relies on monotonicity: every cell key is a
// snapshot of a real node's state, snapshots only grow, and everything a
// cell derives from an under-approximate parent is derivable from the real
// node. The iteration runs until the anchors, cells, global facts and
// ground-term facts are simultaneously stable, which yields the least
// fixpoint exactly; the memo table is at worst exponential in the database
// size, matching the paper's DEXPTIME bound (Theorem 4.1).
package engine

import (
	"context"
	"fmt"
	"sort"

	"funcdb/internal/ast"
	"funcdb/internal/facts"
	"funcdb/internal/normform"
	"funcdb/internal/obs"
	"funcdb/internal/rewrite"
	"funcdb/internal/subst"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Options bound the engine's work.
type Options struct {
	// MaxCells aborts when more than this many child-state cells have been
	// created (0 = no limit). Cell count is bounded by |F| times the number
	// of distinct states, which is finite but can be exponential in the
	// database size (Theorem 4.2).
	MaxCells int
	// MaxRounds aborts a Solve call after this many global iteration rounds
	// (0 = none). The engine keeps what the rounds derived, and the next call
	// starts a fresh count.
	MaxRounds int
	// DisableDirtySkip evaluates every anchor and every cell in every round
	// instead of only those whose inputs have grown since their last
	// evaluation. Only tests (as the differential oracle) and the ablation
	// benchmarks set this.
	DisableDirtySkip bool
}

// Stats reports the work done by an engine.
type Stats struct {
	Rounds       int // global fixpoint rounds
	Cells        int // child-state cells held (created and not swept)
	RuleFirings  int // successful body matches
	FactsDerived int // atoms actually added to some fact set
	AnchorsCount int // anchor nodes
	SkippedEvals int // node evaluations skipped by the dirty check
	CellEvals    int // cell evaluations not skipped
}

// obsMark remembers the stats already flushed to the observability layer,
// so repeated Solve calls (StateOf extends the fixpoint on demand) report
// deltas rather than re-counting prior work.
type obsMark struct {
	rounds, firings, facts, terms int
}

// input names one (set, predicate) pair the rules of a group read, relative
// to the node the group is evaluated at: the node's own facts (Self), those
// of its child by fn (Child), or a set that is the same at every node — the
// global facts (Data) or a ground term's (Ground).
type input struct {
	lvl  normform.Level
	fn   symbols.FuncID
	set  *facts.Set // Data and Ground
	pred symbols.PredID
}

// rule is a compiled rule as a group evaluates it.
type rule struct {
	*normform.Rule
	in   []int      // per body literal, the index of its input in the group
	sink *facts.Set // where a Data or Ground head goes; nil for a head at the node
}

// group is a list of rules evaluated together at a node, with the inputs
// they read there. An evaluation resolves each input to a set once; a cell
// keeps one stamp per input.
type group struct {
	rules  []rule
	inputs []input
}

type cell struct {
	fn     symbols.FuncID
	parent facts.StateID
	set    facts.Set

	// stamps holds, per input of the cell's two groups, how much of the
	// input's per-predicate list the evaluations so far have joined; own is
	// the length of the cell's own set when the last one started. The lists
	// are append-only, so a list no longer than its stamp is unchanged, an
	// evaluation whose inputs are all unchanged can only re-derive what it
	// derived before, and what lies past a stamp is exactly the delta a
	// re-evaluation has to join. The parent state in the key is frozen.
	stamps []int32
	own    int

	live bool // Sweep's reachability mark
}

// stateRow is what the engine holds per interned state: the cells of the
// children of a node in that state, by symbol and counted; whether those of
// every push target are among them; and the state as a set for their rules
// to read.
type stateRow struct {
	cells   []*cell
	n       int
	spawned bool
	view    *facts.Set
}

// Engine computes exact slices of LFP(Z, D). Create with New, then call
// Solve; afterwards StateOf and ChildState answer state queries (running
// further fixpoint work on demand).
type Engine struct {
	Prep *rewrite.Prepared
	U    *term.Universe
	W    *facts.World

	nodeRules   []normform.Rule
	globalRules []normform.Rule
	// The rules as they are evaluated: globals touch no functional variable;
	// push[f] are the node rules with head at f(s), run at a node to fill its
	// child by f; stay are the node rules with head at s, data or ground.
	globals group
	push    []group // by FuncID
	stay    group
	pushFns []symbols.FuncID // symbols of Child-level heads, ascending
	// readBy[g] are the symbols f != g with a push rule that reads the child by
	// g: what is derived at f(t) then depends on g(t) itself, not on t's state
	// alone, so where g(t) is an anchor f(t) is one too.
	readBy [][]symbols.FuncID

	global     *facts.Set
	anchors    map[term.Term]*facts.Set
	anchorList []term.Term

	// memo is the cell table, state × symbol: StateIDs and FuncIDs are both
	// dense. Rows and their cell slices grow on demand.
	memo  []stateRow
	cells []*cell
	// kept is the number of cells the last Sweep left (before the first one,
	// the number present when the first base fact was added to a solved
	// engine); Sweep runs again once as many have been created since.
	kept int

	// version counts fact insertions anywhere; anchorSeen holds the version
	// at each anchor's last evaluation. Anchors read and write one another,
	// and there are few of them, so they are not tracked input by input and
	// every evaluation of one joins full extents.
	version    int64
	anchorSeen map[term.Term]int64

	// Scratch of one evaluation: the sets a group's inputs resolve to and
	// their lengths, and a join's registers, extents, cursors and head.
	srcs []*facts.Set
	lens []int32
	regs []symbols.ConstID
	ext  [][]facts.AtomID
	pos  []int
	head []symbols.ConstID

	opts     Options
	stats    Stats
	mark     obsMark
	overflow error
	solved   bool
	ctx      context.Context
}

// New compiles the prepared program into an engine. Terms are interned in
// u, tuples and states in w.
func New(prep *rewrite.Prepared, u *term.Universe, w *facts.World, opts Options) (*Engine, error) {
	comp, err := normform.Compile(prep, u)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Prep:        prep,
		U:           u,
		W:           w,
		nodeRules:   comp.Node,
		globalRules: comp.Global,
		global:      facts.NewSet(),
		anchors:     make(map[term.Term]*facts.Set),
		anchorSeen:  make(map[term.Term]int64),
		opts:        opts,
	}
	for f := range comp.PushFns {
		e.pushFns = append(e.pushFns, f)
	}
	sort.Slice(e.pushFns, func(i, j int) bool { return e.pushFns[i] < e.pushFns[j] })
	if n := len(e.pushFns); n > 0 {
		e.push = make([]group, e.pushFns[n-1]+1)
	}
	for i := range e.nodeRules {
		r := &e.nodeRules[i]
		for _, l := range r.Body {
			if r.Head.Lvl != normform.Child || l.Lvl != normform.Child || l.Fn == r.Head.Fn {
				continue
			}
			if int(l.Fn) >= len(e.readBy) {
				e.readBy = append(e.readBy, make([][]symbols.FuncID, int(l.Fn)+1-len(e.readBy))...)
			}
			e.readBy[l.Fn] = append(e.readBy[l.Fn], r.Head.Fn)
		}
	}

	// The anchor region: every prefix of a ground term the program mentions
	// (facts and ground rule atoms) with the siblings that read it, and always
	// the root 0.
	e.ensureAnchor(term.Zero)
	for _, t := range comp.GroundTerms {
		e.ensureAnchorPath(t)
	}
	for i := range prep.Program.Facts {
		f := &prep.Program.Facts[i]
		tu := e.tupleOf(f.Args)
		if f.FT == nil {
			e.global.Add(w, w.Atom(f.Pred, tu))
			continue
		}
		t, ok := subst.GroundFTerm(u, f.FT)
		if !ok {
			return nil, fmt.Errorf("engine: fact %s is not ground and pure", f.Format(prep.Program.Tab))
		}
		e.ensureAnchorPath(t)
		e.anchors[t].Add(w, w.Atom(f.Pred, tu))
	}

	for i := range e.globalRules {
		e.globals.add(e, &e.globalRules[i])
	}
	for i := range e.nodeRules {
		r := &e.nodeRules[i]
		if r.Head.Lvl == normform.Child {
			e.pushGroup(r.Head.Fn).add(e, r)
		} else {
			e.stay.add(e, r)
		}
	}
	e.stats.AnchorsCount = len(e.anchorList)
	// Terms interned before the first Solve belong to the program itself
	// (and, in a shared universe, to earlier engines) — not to this fixpoint.
	e.mark.terms = u.Size()
	return e, nil
}

// pushGroup returns the group of the rules with head at f(s), empty for a
// symbol no rule pushes along.
func (e *Engine) pushGroup(f symbols.FuncID) *group {
	if int(f) >= len(e.push) {
		e.push = append(e.push, make([]group, int(f)+1-len(e.push))...)
	}
	return &e.push[f]
}

// add appends r to the group, numbering the inputs its body reads and sizing
// the engine's join scratch for it.
func (g *group) add(e *Engine, r *normform.Rule) {
	cr := rule{Rule: r, in: make([]int, len(r.Body))}
	switch r.Head.Lvl {
	case normform.Data:
		cr.sink = e.global
	case normform.Ground:
		cr.sink = e.anchors[r.Head.GroundTerm]
	}
	for i := range r.Body {
		l := &r.Body[i]
		in := input{lvl: l.Lvl, pred: l.Pred}
		switch l.Lvl {
		case normform.Data:
			in.set = e.global
		case normform.Ground:
			in.set = e.anchors[l.GroundTerm]
		case normform.Child:
			in.fn = l.Fn
		}
		k := 0
		for k < len(g.inputs) && g.inputs[k] != in {
			k++
		}
		if k == len(g.inputs) {
			g.inputs = append(g.inputs, in)
		}
		cr.in[i] = k
	}
	g.rules = append(g.rules, cr)
	if n := len(r.Body); n > len(e.pos) {
		e.ext, e.pos = make([][]facts.AtomID, n), make([]int, n)
	}
	if r.Regs > len(e.regs) {
		e.regs = make([]symbols.ConstID, r.Regs)
	}
	if n := len(r.Head.Plan); n > len(e.head) {
		e.head = make([]symbols.ConstID, n)
	}
}

func (e *Engine) tupleOf(args []ast.DTerm) facts.TupleID {
	consts := make([]symbols.ConstID, len(args))
	for i, d := range args {
		consts[i] = d.Const
	}
	return e.W.Tuple(consts)
}

func (e *Engine) ensureAnchor(t term.Term) *facts.Set {
	if s, ok := e.anchors[t]; ok {
		return s
	}
	s := facts.NewSet()
	e.anchors[t] = s
	e.anchorList = append(e.anchorList, t)
	if t != term.Zero && int(e.U.Top(t)) < len(e.readBy) {
		for _, f := range e.readBy[e.U.Top(t)] {
			e.ensureAnchor(e.U.Apply(f, e.U.Child(t)))
		}
	}
	return s
}

func (e *Engine) ensureAnchorPath(t term.Term) {
	for _, sub := range e.U.Subterms(t) {
		e.ensureAnchor(sub)
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.stats.Cells = len(e.cells)
	e.stats.AnchorsCount = len(e.anchorList)
	return e.stats
}

// Global returns the set of non-functional facts of the least fixpoint.
// Valid after Solve.
func (e *Engine) Global() *facts.Set { return e.global }

// AnchorTerms returns the anchor region's terms.
func (e *Engine) AnchorTerms() []term.Term { return e.anchorList }

// row returns the memo row of state s.
func (e *Engine) row(s facts.StateID) *stateRow {
	if int(s) >= len(e.memo) {
		e.memo = append(e.memo, make([]stateRow, int(s)+1-len(e.memo))...)
	}
	return &e.memo[s]
}

// lookup returns the cell for child f of a node in state parent, nil if there
// is none.
func (e *Engine) lookup(f symbols.FuncID, parent facts.StateID) *cell {
	if int(parent) < len(e.memo) && int(f) < len(e.memo[parent].cells) {
		return e.memo[parent].cells[f]
	}
	return nil
}

// cellFor returns (creating if needed) the cell for child f of a node with
// the given frozen state.
func (e *Engine) cellFor(f symbols.FuncID, parent facts.StateID) *cell {
	if c := e.lookup(f, parent); c != nil {
		return c
	}
	row := e.row(parent)
	if int(f) >= len(row.cells) {
		n := max(int(f)+1, len(e.push))
		row.cells = append(row.cells, make([]*cell, n-len(row.cells))...)
	}
	c := &cell{fn: f, parent: parent}
	row.cells[f] = c
	row.n++
	e.cells = append(e.cells, c)
	if e.opts.MaxCells > 0 && len(e.cells) > e.opts.MaxCells {
		if e.overflow == nil {
			e.overflow = fmt.Errorf("engine: more than %d child-state cells; the specification may be exponentially large", e.opts.MaxCells)
		}
	}
	return c
}

// spawn makes sure every push target of a node in state s has its cell, so
// that the cell picks up the writes the node's state enables.
func (e *Engine) spawn(s facts.StateID) {
	if e.row(s).spawned {
		return
	}
	for _, f := range e.pushFns {
		e.cellFor(f, s)
	}
	e.row(s).spawned = true
}

// stateView returns a frozen state as a set, per-predicate lists and all.
func (e *Engine) stateView(s facts.StateID) *facts.Set {
	row := e.row(s)
	if row.view == nil {
		row.view = facts.NewSet()
		row.view.AddState(e.W, s)
	}
	return row.view
}

// resolve returns the sets g's inputs name at a node whose own facts are
// self and whose child by f holds child(f). The slice is the engine's
// scratch from offset at, valid until the next resolve there.
func (e *Engine) resolve(g *group, at int, self *facts.Set, child func(symbols.FuncID) *facts.Set) []*facts.Set {
	if n := at + len(g.inputs); n > len(e.srcs) {
		e.srcs = append(e.srcs, make([]*facts.Set, n-len(e.srcs))...)
		e.lens = append(e.lens, make([]int32, n-len(e.lens))...)
	}
	srcs := e.srcs[at : at+len(g.inputs)]
	for k := range g.inputs {
		switch in := &g.inputs[k]; in.lvl {
		case normform.Self:
			srcs[k] = self
		case normform.Child:
			srcs[k] = child(in.fn)
		default:
			srcs[k] = in.set
		}
	}
	return srcs
}

// clean reports whether no input of g has grown past its stamp.
func (g *group) clean(srcs []*facts.Set, stamps []int32) bool {
	for k := range g.inputs {
		if len(srcs[k].ByPred(g.inputs[k].pred)) != int(stamps[k]) {
			return false
		}
	}
	return true
}

// apply evaluates g's rules over the sets its inputs resolved to and reports
// whether any new fact was added; heads at the node (or, for a push group, at
// the child it fills) go to sink. With stamps, only what no evaluation has
// joined yet is joined — for each rule, every body match with some literal
// matched past its input's stamp — and the stamps move up to the lengths
// the inputs had when apply was called. Without, every match is joined.
func (e *Engine) apply(g *group, srcs []*facts.Set, stamps []int32, sink *facts.Set) bool {
	lens := e.lens[:len(srcs)]
	for k := range stamps {
		lens[k] = int32(len(srcs[k].ByPred(g.inputs[k].pred)))
	}
	changed := false
	for i := range g.rules {
		r := &g.rules[i]
		to := sink
		if r.sink != nil {
			to = r.sink
		}
		if len(r.Body) == 0 && e.fire(r, to) {
			changed = true
		}
		for d := range r.Body {
			if e.join(r, srcs, stamps, d, to) {
				changed = true
			}
			if stamps == nil || stamps[r.in[d]] == 0 {
				break // nothing of literal d is old: no match has it old and a later one new
			}
		}
	}
	copy(stamps, lens)
	return changed
}

// join fires r for every match of its body that takes literal d's atom from
// past the literal's stamp, those of the literals before d from up to theirs,
// and those of the literals after d from anywhere — over d, each match that
// is new since the stamps exactly once. Nil stamps are zeros. The extents are
// read as the join reaches them, so a fact the rule derives is joined by the
// literals still to come, as well as by the next evaluation.
func (e *Engine) join(r *rule, srcs []*facts.Set, stamps []int32, d int, sink *facts.Set) bool {
	body := r.Body
	extent := func(i int) []facts.AtomID {
		atoms := srcs[r.in[i]].ByPred(body[i].Pred)
		if stamps == nil || i > d {
			return atoms
		}
		if i < d {
			return atoms[:stamps[r.in[i]]]
		}
		return atoms[stamps[r.in[i]]:]
	}
	if len(extent(d)) == 0 {
		return false
	}
	changed := false
	i := 0
	e.ext[0], e.pos[0] = extent(0), 0
	for i >= 0 {
		if e.pos[i] == len(e.ext[i]) {
			i--
			continue
		}
		a := e.ext[i][e.pos[i]]
		e.pos[i]++
		if !e.match(body[i].Plan, e.W.TupleArgs(e.W.AtomTuple(a))) {
			continue
		}
		if i+1 < len(body) {
			i++
			e.ext[i], e.pos[i] = extent(i), 0
			continue
		}
		if e.fire(r, sink) {
			changed = true
		}
	}
	return changed
}

// match compares an atom's arguments with a body literal's plan, writing the
// registers the literal binds. (It takes the arguments, not the atom, to stay
// within the inliner's budget: it is the innermost call of every join.)
func (e *Engine) match(plan []normform.Arg, args []symbols.ConstID) bool {
	if len(args) != len(plan) {
		return false
	}
	for k, p := range plan {
		switch {
		case p.Bind:
			e.regs[p.Reg] = args[k]
		case p.Reg >= 0:
			if e.regs[p.Reg] != args[k] {
				return false
			}
		case p.Const != args[k]:
			return false
		}
	}
	return true
}

// fire counts one match of r's body and adds the head, instantiated from the
// registers, to sink; it reports whether the fact is new.
func (e *Engine) fire(r *rule, sink *facts.Set) bool {
	e.stats.RuleFirings++
	r.Fired = true
	h := &r.Head
	consts := e.head[:len(h.Plan)]
	for k, p := range h.Plan {
		if p.Reg >= 0 {
			consts[k] = e.regs[p.Reg]
		} else {
			consts[k] = p.Const
		}
	}
	if !sink.Add(e.W, e.W.Atom(h.Pred, e.W.Tuple(consts))) {
		return false
	}
	e.version++
	e.stats.FactsDerived++
	return true
}

// evalGlobals runs the rules that touch no functional variable.
func (e *Engine) evalGlobals() bool {
	return e.apply(&e.globals, e.resolve(&e.globals, 0, nil, nil), nil, nil)
}

// evalAnchor runs the node rules instantiated at the anchor term t.
// Concrete (anchor) children are read and written directly; boundary
// children are read through cells, whose own evaluation performs the
// writes.
func (e *Engine) evalAnchor(t term.Term) bool {
	if !e.opts.DisableDirtySkip {
		if seen, ok := e.anchorSeen[t]; ok && seen == e.version {
			e.stats.SkippedEvals++
			return false
		}
	}
	e.anchorSeen[t] = e.version
	s := e.anchors[t]
	below := func(f symbols.FuncID) *facts.Set {
		if cs, ok := e.anchors[e.U.Apply(f, t)]; ok {
			return cs
		}
		return &e.cellFor(f, s.StateID(e.W)).set
	}
	changed := false
	for _, f := range e.pushFns {
		if cs, ok := e.anchors[e.U.Apply(f, t)]; ok {
			g := &e.push[f]
			if e.apply(g, e.resolve(g, 0, s, below), nil, cs) {
				changed = true
			}
		}
	}
	if e.apply(&e.stay, e.resolve(&e.stay, 0, s, below), nil, s) {
		changed = true
	}
	// Make sure every push target beyond the anchor region exists, so its
	// cell picks up the writes this node's state enables.
	for _, f := range e.pushFns {
		if _, ok := e.anchors[e.U.Apply(f, t)]; !ok {
			e.cellFor(f, s.StateID(e.W))
		}
	}
	return changed
}

// evalCell advances one child-state cell: first the rules instantiated at
// its (virtual) parent whose heads push into this child, then the rules
// instantiated at the cell's own node; pushes into that node's children are
// their cells' business. A cell none of whose inputs has grown since its
// last evaluation is skipped, and one that is not joins only what has.
func (e *Engine) evalCell(c *cell) bool {
	up, at := e.pushGroup(c.fn), &e.stay
	first := c.stamps == nil
	if first {
		c.stamps = make([]int32, len(up.inputs)+len(at.inputs))
	}
	upStamps, atStamps := c.stamps[:len(up.inputs)], c.stamps[len(up.inputs):]
	if c.set.Len() != c.own {
		// The node's children are those of another state now, and nothing of
		// them has been read.
		for k := range at.inputs {
			if at.inputs[k].lvl == normform.Child {
				atStamps[k] = 0
			}
		}
	}
	upSrcs := e.resolve(up, 0, e.stateView(c.parent), func(f symbols.FuncID) *facts.Set {
		if f == c.fn {
			return &c.set
		}
		return &e.cellFor(f, c.parent).set
	})
	atSrcs := e.resolve(at, len(up.inputs), &c.set, func(f symbols.FuncID) *facts.Set {
		return &e.cellFor(f, c.set.StateID(e.W)).set
	})
	if e.opts.DisableDirtySkip {
		upStamps, atStamps = nil, nil
	} else if !first && c.own == c.set.Len() && up.clean(upSrcs, upStamps) && at.clean(atSrcs, atStamps) {
		e.stats.SkippedEvals++
		return false
	}
	e.stats.CellEvals++
	c.own = c.set.Len()
	changed := e.apply(up, upSrcs, upStamps, &c.set)
	if e.apply(at, atSrcs, atStamps, &c.set) {
		changed = true
	}
	// Spawn push targets for the cell's current state; the previous
	// evaluation did if the state has not moved since.
	if first || c.set.Len() != c.own {
		e.spawn(c.set.StateID(e.W))
	}
	return changed
}

// SetContext installs a cancellation context checked at the start of every
// fixpoint round and every pollEvery cell evaluations within one. Solve (and
// everything that triggers it, such as StateOf on a new term) aborts with
// the context's error once it expires. A nil or expired context does not
// corrupt the engine: every cell carries its own stamp, so the fixpoint
// simply stops early, mid-round if need be, and the next Solve call resumes
// from the facts derived so far.
func (e *Engine) SetContext(ctx context.Context) { e.ctx = ctx }

// pollEvery is how many cell evaluations run between two looks at the
// context: a round over a large program is most of the solve, so a deadline
// has to be noticed inside it.
const pollEvery = 256

// Context returns the context set with SetContext (nil if none). Algorithm Q
// reads it so its exploration spans join the same trace as the fixpoint.
func (e *Engine) Context() context.Context { return e.ctx }

// Solve runs the chaotic iteration to the simultaneous least fixpoint of
// globals, anchors and cells. It returns at once on an engine that is still
// solved, and after new facts or cells it re-evaluates only what they reach.
func (e *Engine) Solve() error {
	if e.solved {
		return nil
	}
	ctx, span := obs.StartSpan(e.ctx, "solve")
	err := e.run(ctx)
	e.FlushObs()
	span.End()
	return err
}

func (e *Engine) run(ctx context.Context) error {
	expired := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	for rounds := 1; ; rounds++ {
		if err := expired(); err != nil {
			return err
		}
		e.stats.Rounds++
		_, rspan := obs.StartSpan(ctx, "fixpoint_round")
		changed := e.evalGlobals()
		for _, t := range e.anchorList {
			if e.evalAnchor(t) {
				changed = true
			}
		}
		for i := 0; i < len(e.cells); i++ {
			evals := e.stats.CellEvals
			if e.evalCell(e.cells[i]) {
				changed = true
			}
			if e.stats.CellEvals != evals && e.stats.CellEvals%pollEvery == 0 {
				if err := expired(); err != nil {
					rspan.End()
					return err
				}
			}
		}
		rspan.End()
		if e.overflow != nil {
			return e.overflow
		}
		if !changed {
			e.solved = true
			return nil
		}
		if e.opts.MaxRounds > 0 && rounds >= e.opts.MaxRounds {
			return fmt.Errorf("engine: no fixpoint after %d rounds", rounds)
		}
	}
}

// FlushObs reports the work done since the last flush to the cumulative
// engine sink and, when the engine's context carries a trace, to the
// per-query trace counters. Solve flushes automatically; callers that drive
// the engine piecemeal (StateOf/ChildState also trigger rounds) get the
// remainder on their next Solve or explicit flush.
func (e *Engine) FlushObs() {
	dRounds := int64(e.stats.Rounds - e.mark.rounds)
	dFirings := int64(e.stats.RuleFirings - e.mark.firings)
	dFacts := int64(e.stats.FactsDerived - e.mark.facts)
	dTerms := int64(e.U.Size() - e.mark.terms)
	e.mark = obsMark{e.stats.Rounds, e.stats.RuleFirings, e.stats.FactsDerived, e.U.Size()}
	sink := obs.EngineSink()
	sink.AddRounds(dRounds)
	sink.AddFirings(dFirings)
	sink.AddFacts(dFacts)
	sink.AddTerms(dTerms)
	if tr := obs.FromContext(e.ctx); tr != nil {
		tr.Add("fixpoint_rounds", dRounds)
		tr.Add("rule_firings", dFirings)
		tr.Add("facts_derived", dFacts)
		tr.Add("terms_interned", dTerms)
	}
}

// StateOf returns the interned state (the slice with the functional
// component stripped, over all predicates of the prepared program) of an
// arbitrary ground term. It may extend the fixpoint when t lies outside the
// explored region.
func (e *Engine) StateOf(t term.Term) (facts.StateID, error) {
	if _, ok := e.anchors[t]; ok {
		return e.StateBelow(t, 0)
	}
	parent, err := e.StateOf(e.U.Child(t))
	if err != nil {
		return 0, err
	}
	return e.StateBelow(t, parent)
}

// StateBelow is the last step of StateOf for a caller that already holds
// the state of t's parent term, as Algorithm Q does walking the term tree
// top-down: the anchor's own state inside the anchor region (parent is then
// not consulted), the memoized child state outside it.
func (e *Engine) StateBelow(t term.Term, parent facts.StateID) (facts.StateID, error) {
	if err := e.Solve(); err != nil {
		return 0, err
	}
	if s, ok := e.anchors[t]; ok {
		return s.StateID(e.W), nil
	}
	return e.ChildState(e.U.Top(t), parent)
}

// ChildState returns the state of the child reached by f from a node in
// state s, outside the anchor region.
func (e *Engine) ChildState(f symbols.FuncID, s facts.StateID) (facts.StateID, error) {
	before := len(e.cells)
	c := e.cellFor(f, s)
	if len(e.cells) != before {
		e.solved = false
		if err := e.Solve(); err != nil {
			return 0, err
		}
	}
	return c.set.StateID(e.W), nil
}

// AddGlobalFact inserts a non-functional base fact. The fixpoint is
// monotone in the database, so the engine's state remains a sound
// under-approximation; call Solve to restore the fixpoint.
func (e *Engine) AddGlobalFact(pred symbols.PredID, args []symbols.ConstID) {
	if e.global.Add(e.W, e.W.Atom(pred, e.W.Tuple(args))) {
		e.baseFactAdded()
	}
}

// baseFactAdded notes a base fact that was not there: the fixpoint has to be
// restored, and the cells present now are what Sweep first measures growth
// against.
func (e *Engine) baseFactAdded() {
	e.version++
	e.solved = false
	if e.kept == 0 {
		e.kept = len(e.cells)
	}
}

// AddGroundFact inserts a functional base fact at the ground term t,
// extending the anchor region along t's prefixes, at any depth. Call Solve
// afterwards. Algorithm Q must seed below every anchor, so a caller that goes
// on to build a specification raises Prep.C and Prep.SeedDepth to t's depth
// first (core.Extend does).
func (e *Engine) AddGroundFact(pred symbols.PredID, t term.Term, args []symbols.ConstID) {
	e.ensureAnchorPath(t)
	if e.anchors[t].Add(e.W, e.W.Atom(pred, e.W.Tuple(args))) {
		e.baseFactAdded()
	}
}

// Sweep drops the cells no state query can reach any more: those not
// reachable through the memo table over the alphabet from the anchors'
// current states, along the symbols that lead out of the anchor region. A
// base fact changes the states along its branch, and the cells keyed on the
// old states stay behind; left alone they are re-checked in every round for
// ever. Sweep does nothing until as many cells have been created since the
// last sweep as that one kept, so its cost is amortized over the cells it
// examines, and nothing on an engine that is not solved: only at the fixpoint
// is every kept cell clean, with nothing but kept cells among its inputs: its
// children, marked with it, and the siblings its push rules read — below a
// kept cell every symbol is marked, and below an anchor t a kept cell for f
// means f(t) is no anchor, so neither is any g(t) that f's rules read
// (readBy), and g leads out of the region as f does. A stamp held against a
// dropped cell would outlive the list it counts. A dropped cell that is asked
// for again is recreated and solved like any new one.
func (e *Engine) Sweep() {
	if !e.solved || len(e.cells) <= 2*e.kept {
		return
	}
	var stack []*cell
	mark := func(f symbols.FuncID, s facts.StateID) {
		if c := e.lookup(f, s); c != nil && !c.live {
			c.live = true
			stack = append(stack, c)
		}
	}
	type edge struct {
		t term.Term
		f symbols.FuncID
	}
	inside := make(map[edge]bool, len(e.anchorList))
	for _, t := range e.anchorList {
		if t != term.Zero {
			inside[edge{e.U.Child(t), e.U.Top(t)}] = true
		}
	}
	for _, t := range e.anchorList {
		for _, f := range e.Prep.Funcs {
			if !inside[edge{t, f}] {
				mark(f, e.anchors[t].StateID(e.W))
			}
		}
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range e.Prep.Funcs {
			mark(f, c.set.StateID(e.W))
		}
	}
	kept := e.cells[:0]
	for _, c := range e.cells {
		if c.live {
			c.live = false
			kept = append(kept, c)
			continue
		}
		row := &e.memo[c.parent]
		row.cells[c.fn], row.spawned = nil, false
		if row.n--; row.n == 0 {
			row.view = nil
		}
	}
	clear(e.cells[len(kept):])
	e.cells, e.kept = kept, len(kept)
}

// UnfiredRules returns the source rules whose body was never satisfied
// anywhere in the explored fixpoint — dead rules, in the sense of a linter.
// Valid after Solve.
func (e *Engine) UnfiredRules() []*ast.Rule {
	var out []*ast.Rule
	collect := func(rules []normform.Rule) {
		for i := range rules {
			if !rules[i].Fired {
				out = append(out, rules[i].Src)
			}
		}
	}
	collect(e.nodeRules)
	collect(e.globalRules)
	return out
}

// HasGlobal reports whether the non-functional fact pred(args) is in the
// least fixpoint. Valid after Solve.
func (e *Engine) HasGlobal(pred symbols.PredID, args []symbols.ConstID) bool {
	return e.global.Has(e.W, e.W.Atom(pred, e.W.Tuple(args)))
}

// HasAt reports whether pred(t, args) is in the least fixpoint.
func (e *Engine) HasAt(pred symbols.PredID, t term.Term, args []symbols.ConstID) (bool, error) {
	s, err := e.StateOf(t)
	if err != nil {
		return false, err
	}
	return e.W.StateContains(s, e.W.Atom(pred, e.W.Tuple(args))), nil
}
