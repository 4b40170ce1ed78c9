// Package engine computes exact slices of the (generally infinite) least
// fixpoint of a prepared functional program, and with them the state
// equivalence relation ~ of section 3.1.
//
// Facts can flow both up (P(s) -> Q(f(s))) and down (P(f(s)) -> Q(s)) the
// tree of ground functional terms, so no fixed-depth truncation is exact.
// The engine instead runs a chaotic least-fixpoint iteration over
//
//   - a finite anchor region: every prefix of a ground term mentioned by the
//     program (facts and ground atoms in rules), each with a concrete,
//     growing fact set; and
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
	// MaxRounds aborts after this many global iteration rounds (0 = none).
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

type memoKey struct {
	fn     symbols.FuncID
	parent facts.StateID
}

// read is one cell set another cell's evaluation consulted, with its length
// at the time.
type read struct {
	set *facts.Set
	n   int
}

type cell struct {
	key memoKey
	set *facts.Set

	// What the last evaluation read, as set lengths. Sets only grow, so a
	// set whose length is unchanged is unchanged, and an evaluation whose
	// inputs are all unchanged can only re-derive what it derived before:
	// shared is the total length of the sets every cell reads (Engine.shared),
	// own the length of the cell's own set, both at the start; reads are the
	// sibling and child cells consulted through childSrc. The parent state
	// in the key is frozen and needs no stamp.
	evaluated bool
	shared    int
	own       int
	reads     []read

	live bool // Sweep's reachability mark
}

// clean reports whether nothing c's last evaluation read has grown since.
func (c *cell) clean(shared int) bool {
	if !c.evaluated || c.shared != shared || c.own != c.set.Len() {
		return false
	}
	for _, r := range c.reads {
		if r.set.Len() != r.n {
			return false
		}
	}
	return true
}

// src records that c's evaluation reads the cell from and returns its facts.
func (c *cell) src(from *cell) srcFn {
	for _, r := range c.reads {
		if r.set == from.set {
			return from.set.ByPred
		}
	}
	c.reads = append(c.reads, read{from.set, from.set.Len()})
	return from.set.ByPred
}

// Engine computes exact slices of LFP(Z, D). Create with New, then call
// Solve; afterwards StateOf and ChildState answer state queries (running
// further fixpoint work on demand).
type Engine struct {
	Prep *rewrite.Prepared
	U    *term.Universe
	W    *facts.World

	nodeRules   []normform.Rule
	childHead   map[symbols.FuncID][]*normform.Rule // node rules with head at f(s)
	othersHead  []*normform.Rule                    // node rules with head at s, data or ground
	globalRules []normform.Rule
	pushFns     []symbols.FuncID // symbols of Child-level heads, ascending

	global     *facts.Set
	anchors    map[term.Term]*facts.Set
	anchorList []term.Term

	memo  map[memoKey]*cell
	cells []*cell
	// kept is the number of cells the last Sweep left (before the first one,
	// the number present when the first base fact was added to a solved
	// engine); Sweep runs again once as many have been created since.
	kept int

	// shared are the sets any cell's rules may read besides the cell's own
	// neighbourhood: the global facts and the anchors named by Ground-level
	// body literals.
	shared []*facts.Set

	// version counts fact insertions anywhere; anchorSeen holds the version
	// at each anchor's last evaluation. Anchors read and write one another,
	// and there are few of them, so they are not tracked input by input.
	version    int64
	anchorSeen map[term.Term]int64

	stateViews map[facts.StateID]map[symbols.PredID][]facts.AtomID

	opts     Options
	stats    Stats
	mark     obsMark
	overflow error
	solved   bool
	ctx      context.Context

	ruleFired map[*normform.Rule]bool
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
		memo:        make(map[memoKey]*cell),
		stateViews:  make(map[facts.StateID]map[symbols.PredID][]facts.AtomID),
		childHead:   make(map[symbols.FuncID][]*normform.Rule),
		ruleFired:   make(map[*normform.Rule]bool),
		opts:        opts,
	}
	for f := range comp.PushFns {
		e.pushFns = append(e.pushFns, f)
	}
	sort.Slice(e.pushFns, func(i, j int) bool { return e.pushFns[i] < e.pushFns[j] })
	for i := range e.nodeRules {
		r := &e.nodeRules[i]
		if r.Head.Lvl == normform.Child {
			e.childHead[r.Head.Fn] = append(e.childHead[r.Head.Fn], r)
		} else {
			e.othersHead = append(e.othersHead, r)
		}
	}

	// The anchor region: every prefix of a ground term the program mentions
	// (facts and ground rule atoms), and always the root 0.
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
	e.shared = []*facts.Set{e.global}
	seen := make(map[term.Term]bool)
	for i := range e.nodeRules {
		for _, l := range e.nodeRules[i].Body {
			if l.Lvl == normform.Ground && !seen[l.GroundTerm] {
				seen[l.GroundTerm] = true
				e.shared = append(e.shared, e.anchors[l.GroundTerm])
			}
		}
	}
	e.stats.AnchorsCount = len(e.anchorList)
	// Terms interned before the first Solve belong to the program itself
	// (and, in a shared universe, to earlier engines) — not to this fixpoint.
	e.mark.terms = u.Size()
	return e, nil
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

// cellFor returns (creating if needed) the cell for child f of a node with
// the given frozen state.
func (e *Engine) cellFor(f symbols.FuncID, parent facts.StateID) *cell {
	key := memoKey{f, parent}
	if c, ok := e.memo[key]; ok {
		return c
	}
	c := &cell{key: key, set: facts.NewSet()}
	e.memo[key] = c
	e.cells = append(e.cells, c)
	if e.opts.MaxCells > 0 && len(e.cells) > e.opts.MaxCells {
		if e.overflow == nil {
			e.overflow = fmt.Errorf("engine: more than %d child-state cells; the specification may be exponentially large", e.opts.MaxCells)
		}
	}
	return c
}

// stateView returns the per-predicate index of a frozen state.
func (e *Engine) stateView(s facts.StateID) map[symbols.PredID][]facts.AtomID {
	if v, ok := e.stateViews[s]; ok {
		return v
	}
	v := make(map[symbols.PredID][]facts.AtomID)
	for _, a := range e.W.StateAtoms(s) {
		p := e.W.AtomPred(a)
		v[p] = append(v[p], a)
	}
	e.stateViews[s] = v
	return v
}

type srcFn func(p symbols.PredID) []facts.AtomID
type sinkFn func(a facts.AtomID) bool

// ruleCtx supplies sources and sinks for the self and child levels of one
// rule instantiation site. Data and ground levels are global and resolved
// by the engine directly.
type ruleCtx struct {
	selfSrc   srcFn
	childSrc  func(f symbols.FuncID) srcFn
	selfSink  sinkFn
	childSink func(f symbols.FuncID) sinkFn
}

// applyRule joins r's body under ctx and emits heads; it reports whether
// any new fact was added.
func (e *Engine) applyRule(r *normform.Rule, ctx *ruleCtx) bool {
	changed := false
	var b subst.Binding
	var rec func(i int)
	rec = func(i int) {
		if i == len(r.Body) {
			e.stats.RuleFirings++
			e.ruleFired[r] = true
			if e.emit(r, ctx, &b) {
				changed = true
			}
			return
		}
		l := &r.Body[i]
		var atoms []facts.AtomID
		switch l.Lvl {
		case normform.Data:
			atoms = e.global.ByPred(l.Pred)
		case normform.Ground:
			if s, ok := e.anchors[l.GroundTerm]; ok {
				atoms = s.ByPred(l.Pred)
			}
		case normform.Self:
			if ctx.selfSrc == nil {
				return
			}
			atoms = ctx.selfSrc(l.Pred)
		case normform.Child:
			if ctx.childSrc == nil {
				return
			}
			src := ctx.childSrc(l.Fn)
			if src == nil {
				return
			}
			atoms = src(l.Pred)
		}
		for _, a := range atoms {
			nc, nt := b.Mark()
			if e.matchArgs(l.Args, a, &b) {
				rec(i + 1)
			}
			b.Undo(nc, nt)
		}
	}
	rec(0)
	return changed
}

func (e *Engine) matchArgs(pats []ast.DTerm, a facts.AtomID, b *subst.Binding) bool {
	args := e.W.TupleArgs(e.W.AtomTuple(a))
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

func (e *Engine) emit(r *normform.Rule, ctx *ruleCtx, b *subst.Binding) bool {
	h := &r.Head
	consts := make([]symbols.ConstID, len(h.Args))
	for i, d := range h.Args {
		c, ok := b.ApplyData(d)
		if !ok {
			// Range restriction guarantees boundness; treat as no match.
			return false
		}
		consts[i] = c
	}
	a := e.W.Atom(h.Pred, e.W.Tuple(consts))
	added := false
	switch h.Lvl {
	case normform.Data:
		added = e.global.Add(e.W, a)
	case normform.Ground:
		added = e.ensureAnchor(h.GroundTerm).Add(e.W, a)
	case normform.Self:
		if ctx.selfSink == nil {
			return false
		}
		added = ctx.selfSink(a)
	case normform.Child:
		if ctx.childSink == nil {
			return false
		}
		sink := ctx.childSink(h.Fn)
		if sink == nil {
			return false
		}
		added = sink(a)
	}
	if added {
		e.version++
		e.stats.FactsDerived++
	}
	return added
}

// evalGlobals runs the rules that touch no functional variable.
func (e *Engine) evalGlobals() bool {
	changed := false
	ctx := &ruleCtx{}
	for i := range e.globalRules {
		if e.applyRule(&e.globalRules[i], ctx) {
			changed = true
		}
	}
	return changed
}

// evalAnchor runs all node rules instantiated at the anchor term t.
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
	startVersion := e.version
	defer func() { e.anchorSeen[t] = startVersion }()
	s := e.anchors[t]
	ctx := &ruleCtx{
		selfSrc:  s.ByPred,
		selfSink: func(a facts.AtomID) bool { return s.Add(e.W, a) },
		childSrc: func(f symbols.FuncID) srcFn {
			child := e.U.Apply(f, t)
			if cs, ok := e.anchors[child]; ok {
				return cs.ByPred
			}
			return e.cellFor(f, s.StateID(e.W)).set.ByPred
		},
		childSink: func(f symbols.FuncID) sinkFn {
			child := e.U.Apply(f, t)
			if cs, ok := e.anchors[child]; ok {
				return func(a facts.AtomID) bool { return cs.Add(e.W, a) }
			}
			return nil
		},
	}
	changed := false
	for i := range e.nodeRules {
		if e.applyRule(&e.nodeRules[i], ctx) {
			changed = true
		}
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

// sharedLen is the version of the sets every cell reads.
func (e *Engine) sharedLen() int {
	n := 0
	for _, s := range e.shared {
		n += s.Len()
	}
	return n
}

// evalCell advances one child-state cell: first the rules instantiated at
// its (virtual) parent whose heads push into this child, then the rules
// instantiated at the cell's own node. A cell none of whose inputs has
// grown since its last evaluation is skipped.
func (e *Engine) evalCell(c *cell) bool {
	shared := e.sharedLen()
	if !e.opts.DisableDirtySkip && c.clean(shared) {
		e.stats.SkippedEvals++
		return false
	}
	e.stats.CellEvals++
	first := !c.evaluated
	c.evaluated, c.shared, c.own, c.reads = true, shared, c.set.Len(), c.reads[:0]
	changed := false

	// Group 1: instantiated at the parent, head at Child(c.key.fn).
	parentView := e.stateView(c.key.parent)
	ctx1 := &ruleCtx{
		selfSrc: func(p symbols.PredID) []facts.AtomID { return parentView[p] },
		childSrc: func(g symbols.FuncID) srcFn {
			if g == c.key.fn {
				return c.set.ByPred
			}
			return c.src(e.cellFor(g, c.key.parent))
		},
		childSink: func(g symbols.FuncID) sinkFn {
			if g == c.key.fn {
				return func(a facts.AtomID) bool { return c.set.Add(e.W, a) }
			}
			return nil
		},
	}
	for _, r := range e.childHead[c.key.fn] {
		if e.applyRule(r, ctx1) {
			changed = true
		}
	}

	// Group 2: instantiated at the cell's node itself; heads at the node,
	// at ground terms or non-functional. Pushes into this node's children
	// are handled by the children's own group 1.
	ctx2 := &ruleCtx{
		selfSrc:  c.set.ByPred,
		selfSink: func(a facts.AtomID) bool { return c.set.Add(e.W, a) },
		childSrc: func(g symbols.FuncID) srcFn {
			return c.src(e.cellFor(g, c.set.StateID(e.W)))
		},
	}
	for _, r := range e.othersHead {
		if e.applyRule(r, ctx2) {
			changed = true
		}
	}

	// Spawn push targets for the cell's current state; the previous
	// evaluation did if the state has not moved since.
	if first || c.set.Len() != c.own {
		for _, f := range e.pushFns {
			e.cellFor(f, c.set.StateID(e.W))
		}
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
	for {
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
		if e.opts.MaxRounds > 0 && e.stats.Rounds >= e.opts.MaxRounds {
			return fmt.Errorf("engine: no fixpoint after %d rounds", e.stats.Rounds)
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
// extending the anchor region along t's prefixes. Call Solve afterwards.
// The caller must ensure t's depth does not exceed the prepared seed depth
// assumptions (core.Extend recompiles in that case).
func (e *Engine) AddGroundFact(pred symbols.PredID, t term.Term, args []symbols.ConstID) {
	e.ensureAnchorPath(t)
	if e.anchors[t].Add(e.W, e.W.Atom(pred, e.W.Tuple(args))) {
		e.baseFactAdded()
	}
}

// Sweep drops the cells no state query can reach any more: those not
// reachable from the anchors' current states through the memo table over the
// alphabet. A base fact changes the states along its branch, and the cells
// keyed on the old states stay behind; left alone they are re-checked in
// every round for ever. Sweep does nothing until as many cells have been
// created since the last sweep as that one kept, so its cost is amortized
// over the cells it examines, and nothing on an engine that is not solved:
// only at the fixpoint is every kept cell clean, with nothing but kept cells
// among its reads. A dropped cell that is asked for again is recreated and
// solved like any new one.
func (e *Engine) Sweep() {
	if !e.solved || len(e.cells) <= 2*e.kept {
		return
	}
	var stack []facts.StateID
	for _, t := range e.anchorList {
		stack = append(stack, e.anchors[t].StateID(e.W))
	}
	views := make(map[facts.StateID]map[symbols.PredID][]facts.AtomID)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range e.Prep.Funcs {
			if c, ok := e.memo[memoKey{f, s}]; ok && !c.live {
				c.live = true
				stack = append(stack, c.set.StateID(e.W))
				if v, ok := e.stateViews[s]; ok {
					views[s] = v
				}
			}
		}
	}
	kept := e.cells[:0]
	for _, c := range e.cells {
		if c.live {
			c.live = false
			kept = append(kept, c)
		} else {
			delete(e.memo, c.key)
		}
	}
	for i := len(kept); i < len(e.cells); i++ {
		e.cells[i] = nil
	}
	e.cells, e.kept, e.stateViews = kept, len(kept), views
}

// UnfiredRules returns the source rules whose body was never satisfied
// anywhere in the explored fixpoint — dead rules, in the sense of a linter.
// Valid after Solve.
func (e *Engine) UnfiredRules() []*ast.Rule {
	var out []*ast.Rule
	collect := func(rules []normform.Rule) {
		for i := range rules {
			if !e.ruleFired[&rules[i]] {
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
	return e.global.Has(e.W.Atom(pred, e.W.Tuple(args)))
}

// HasAt reports whether pred(t, args) is in the least fixpoint.
func (e *Engine) HasAt(pred symbols.PredID, t term.Term, args []symbols.ConstID) (bool, error) {
	s, err := e.StateOf(t)
	if err != nil {
		return false, err
	}
	return e.W.StateContains(s, e.W.Atom(pred, e.W.Tuple(args))), nil
}
