// Compiled query plans: the paper's "compile once, answer cheaply" premise
// applied to the serving hot path. Prepare parses and lowers a query against
// one immutable Snapshot; executing the resulting Plan re-does none of that
// work. Ground queries whose atoms are observable through the flat DFA
// tables (specgraph.FlatDFA) execute as pure array walks — zero map lookups,
// zero allocations. Plans are cached per snapshot, keyed on the canonical
// query shape (canonical.QueryShape) so spelling variants share one
// compilation, with singleflight collapse of concurrent misses. Mutating the
// database publishes a fresh Snapshot, which starts with an empty plan cache
// — version-bump invalidation needs no scans.
package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"funcdb/internal/ast"
	"funcdb/internal/canonical"
	"funcdb/internal/facts"
	"funcdb/internal/obs"
	"funcdb/internal/parser"
	"funcdb/internal/query"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// stepKind discriminates the compiled forms of one ground atom.
type stepKind uint8

const (
	// stepTrue: the atom is a data fact present in the frozen global set —
	// a constant, resolved at compile time.
	stepTrue stepKind = iota
	// stepFalse: the atom can never hold in this snapshot (novel constant,
	// tuple absent from the frozen world) — also a compile-time constant.
	stepFalse
	// stepFlat: run the flat DFA on the pre-translated symbol string and
	// binary-search the resulting state's observable slice.
	stepFlat
	// stepSlow: walk the representatives' table and read the full state
	// reached (helper-predicate atoms, which the flat tables' minimised
	// classes do not preserve).
	stepSlow
)

// groundStep is one compiled ground atom.
type groundStep struct {
	kind stepKind
	syms []int32      // stepFlat, stepSlow: innermost-first flat symbol indices
	atom facts.AtomID // stepFlat, stepSlow: frozen atom to look for
}

// eqStep is one ground atom lowered for the equational method: membership
// is congruence of the query term with any candidate representative whose
// slice carries the atom (the paper's membership test over (B, R)).
type eqStep struct {
	t      term.Term // term.None for a compile-time verdict
	cands  []term.Term
	dataOK bool // the compile-time verdict
}

// Plan is a query compiled against one Snapshot. It is immutable after
// Prepare returns, but for the two values it computes on first need and
// then only reads (the equational lowering, the answer specification), and
// safe for unlimited concurrent execution; all per-execution state lives in
// pooled scratch arenas or in the caller's Answers handle. A Plan answers
// exactly as of its snapshot — after a mutation, Prepare against the new
// snapshot compiles a fresh one.
//
// A ground plan keeps its text, shape, fingerprint and steps — per atom a
// verdict, or a symbol string and an atom — and nothing else: no AST, no
// symbol table. An open plan keeps its query and the table naming it.
type Plan struct {
	snap        *Snapshot
	src         string
	shape       string
	fingerprint string // obs.Fingerprint(shape), fixed at compile
	ground      bool
	flat        bool // every step is stepTrue/stepFalse/stepFlat
	steps       []groundStep

	// An open plan's query, and the symbol base of its answer
	// specification: the snapshot's frozen table, or a frozen private clone
	// when the query text interned symbols the snapshot does not know.
	q   *ast.Query
	tab *symbols.Table

	// Equational lowering, compiled on first equational execution.
	eqOnce  sync.Once
	eqSteps []eqStep
	eqView  *term.Universe // read-only after eqOnce; holds the query terms

	// The answer specification of an open query, computed by the first
	// execution that needs it (answerSpec).
	spec atomic.Pointer[specBuild]
}

// Shape returns the canonical query shape the plan cache keyed on; response
// caches key on it too, so spelling variants of one query share entries.
func (p *Plan) Shape() string { return p.shape }

// Fingerprint returns the short hash of the shape that observability keys
// on. It is computed once, when the plan is compiled: a request that hits the
// plan cache must not rescan its text for a label.
func (p *Plan) Fingerprint() string { return p.fingerprint }

// Ground reports whether the query is ground (a yes/no membership test).
func (p *Plan) Ground() bool { return p.ground }

// planEntry is one slot of the plan cache. The goroutine that makes the entry
// compiles it and holds pending until it has; whoever else finds the entry, by
// text or by shape, waits on pending and shares the result (singleflight
// collapse). A finder must not be able to run in the compiler's place: it may
// arrive between the entry's publication and the compile, with nothing to
// compile from.
type planEntry struct {
	pending sync.WaitGroup
	plan    *Plan
	err     error
}

// planCacheCap bounds the entries of each cache map and planCacheBytes the
// bytes the cache retains: a ground plan keeps four bytes per application,
// an open one its AST, some 40 bytes per application, so a few thousand deep
// plans are megabytes however few entries they are. The cache lives and
// dies with its Snapshot, so eviction is a rare safety valve, not a
// steady-state path: when either bound would be passed, both maps are
// simply flushed. entryOverhead is the fixed cost charged per cached text:
// its slot in the texts map, its entry, and a shape's slot in the shapes map.
const (
	planCacheCap   = 4096
	planCacheBytes = 16 << 20
	entryOverhead  = 160
)

// planCache is the per-snapshot two-level plan cache: an exact-text map for
// the zero-work hit path, and a canonical-shape map so different spellings
// compile once.
type planCache struct {
	mu     sync.RWMutex
	texts  map[string]*planEntry
	shapes map[string]*planEntry
	bytes  int // retained by the entries of both maps, as estimated by their inserters
}

// charge accounts for cost more bytes retained by a plan of the cache (its
// answer specification, computed after the plan was inserted) and reports
// whether they may be retained: like a plan, a value over an eighth of the
// budget is served without being kept.
func (pc *planCache) charge(cost int) bool {
	if cost > planCacheBytes/8 {
		return false
	}
	pc.mu.Lock()
	pc.admit(cost)
	pc.mu.Unlock()
	return true
}

// admit makes room for an insertion retaining cost more bytes, flushing the
// cache if it would pass a bound. The caller holds mu.
func (pc *planCache) admit(cost int) {
	if len(pc.texts) >= planCacheCap || len(pc.shapes) >= planCacheCap || pc.bytes+cost > planCacheBytes {
		pc.texts = make(map[string]*planEntry)
		pc.shapes = make(map[string]*planEntry)
		pc.bytes = 0
	}
	pc.bytes += cost
}

// What a compiled plan retains besides its text and shape: the Plan and
// its fingerprint; a step per ground atom; an open plan's query, one Atom
// per atom and one FTerm per functional atom.
const (
	planOverhead = 208
	stepBytes    = 48
	atomBytes    = 40
	ftermBytes   = 32
)

// planBytes estimates what a compiled plan for q retains beyond its text: a
// ground plan's shape and steps, whose symbol strings take four bytes per
// application; an open plan's shape and AST.
func planBytes(shape string, q *ast.Query) int {
	n := planOverhead + len(shape)
	if groundQuery(q) {
		for i := range q.Atoms {
			n += stepBytes
			if ft := q.Atoms[i].FT; ft != nil {
				n += 4 * len(ft.Apps)
			}
		}
		return n
	}
	n += 48 + 4*len(q.Free)
	for i := range q.Atoms {
		a := &q.Atoms[i]
		n += atomBytes + 8*len(a.Args)
		if a.FT != nil {
			n += ftermBytes + 32*len(a.FT.Apps)
			for _, app := range a.FT.Apps {
				n += 8 * len(app.Args)
			}
		}
	}
	return n
}

func groundQuery(q *ast.Query) bool {
	for i := range q.Atoms {
		if !q.Atoms[i].IsGround() {
			return false
		}
	}
	return true
}

// Prepare compiles src into a Plan bound to this snapshot, consulting the
// plan cache first: an exact-text hit costs one map lookup, a novel
// spelling of a cached shape costs one parse, and concurrent misses on one
// shape collapse into a single compilation.
func (s *Snapshot) Prepare(ctx context.Context, src string) (*Plan, error) {
	pc := &s.plans
	pc.mu.RLock()
	e := pc.texts[src]
	pc.mu.RUnlock()
	if e != nil {
		e.pending.Wait() // wait out an in-flight compile
		obs.EngineSink().AddPlanHits(1)
		return e.plan, e.err
	}
	obs.EngineSink().AddPlanMisses(1)
	return s.prepareMiss(ctx, src)
}

func (s *Snapshot) prepareMiss(ctx context.Context, src string) (*Plan, error) {
	pc := &s.plans
	_, psp := obs.StartSpan(ctx, "parse")
	ec := s.getEval()
	defer s.putEval(ec)
	q, err := parser.ParseQueryTab(ec.tab, src)
	psp.End()
	// The bytes the new entry will retain. (A respelling of a cached shape
	// is charged for the plan again: an overestimate, never an under.)
	cost, shape := entryOverhead+len(src), ""
	if err == nil {
		shape = canonical.QueryShape(q, ec.tab)
		cost += planBytes(shape, q)
	}
	if cost > planCacheBytes/8 {
		// Not worth flushing every other plan for: answer it uncached.
		if err != nil {
			return nil, err
		}
		return s.compile(ctx, ec, src, shape, q)
	}
	pc.mu.Lock()
	pc.admit(cost)
	var e *planEntry
	mine := false
	if err != nil {
		e = &planEntry{err: err} // nothing to compile
	} else if e = pc.shapes[shape]; e == nil {
		e, mine = &planEntry{}, true
		e.pending.Add(1)
		pc.shapes[shape] = e
	}
	pc.texts[src] = e
	pc.mu.Unlock()
	if mine {
		func() {
			defer e.pending.Done()
			e.plan, e.err = s.compile(ctx, ec, src, shape, q)
		}()
	}
	e.pending.Wait()
	return e.plan, e.err
}

// compile lowers a parsed query onto a Plan. ec is the prepare-time scratch
// the query was parsed into; nothing of it is retained (symbol strings are
// copied, atom ids kept only when they refer to the frozen world).
func (s *Snapshot) compile(ctx context.Context, ec *evalCtx, src, shape string, q *ast.Query) (*Plan, error) {
	_, csp := obs.StartSpan(ctx, "plan_compile")
	defer csp.End()
	p := &Plan{snap: s, src: src, shape: shape, fingerprint: obs.Fingerprint(shape), ground: groundQuery(q)}
	if !p.ground {
		p.q, p.tab = q, s.tab
		if ec.tab.HasLocal() {
			// The query interned novel symbols: give the plan a private table
			// so the AST's identifiers stay resolvable at execution time.
			p.tab = ec.tab.Clone().Freeze()
		}
		return p, nil
	}
	lw := lowering{fd: s.spec.Flat(), tab: ec.tab}
	p.steps = make([]groundStep, len(q.Atoms))
	p.flat = true
	for i := range q.Atoms {
		p.steps[i] = s.lower(ec, &lw, &q.Atoms[i])
		p.flat = p.flat && p.steps[i].kind != stepSlow
	}
	return p, nil
}

// lower compiles one ground atom. Under range restriction the least
// fixpoint holds no atom over a term with a symbol outside the alphabet, nor
// one with a predicate or tuple the snapshot has never seen, so each of
// those is a compile-time false, whichever method executes the plan.
func (s *Snapshot) lower(ec *evalCtx, lw *lowering, a *ast.Atom) groundStep {
	args := constArgs(a)
	if a.FT == nil {
		// Data atom: the frozen global set is immutable, so the verdict is a
		// compile-time constant.
		if s.spec.HasData(ec.w, a.Pred, args) {
			return groundStep{kind: stepTrue}
		}
		return groundStep{kind: stepFalse}
	}
	syms := make([]int32, len(a.FT.Apps))
	for i, app := range a.FT.Apps {
		var ok bool
		if syms[i], ok = lw.index(app); !ok {
			return groundStep{kind: stepFalse}
		}
	}
	atom := ec.w.Atom(a.Pred, ec.w.Tuple(args))
	if int(atom) >= s.w.NumAtoms() {
		return groundStep{kind: stepFalse}
	}
	if !s.spec.OriginalPred(a.Pred) {
		// The flat tables observe original predicates only (the minimized
		// quotient does not preserve helper facts).
		return groundStep{kind: stepSlow, syms: syms, atom: atom}
	}
	return groundStep{kind: stepFlat, syms: syms, atom: atom}
}

// mixedMemoSize is the number of slots of a compile's mixed-application
// memo: a deep term repeats a handful of applications for hundreds of
// layers, and a miss costs what every layer used to.
const mixedMemoSize = 64

// lowering resolves the applications of one compile's ground terms to flat
// symbol indices. A pure symbol is one array read; a mixed application
// g(·, a, b) stands for the pure symbol g'a'b that rewrite.EliminateMixed
// derived when the program was compiled, found by name once per distinct
// application and compile.
type lowering struct {
	fd   *specgraph.FlatDFA
	tab  *symbols.Table
	name []byte
	memo [mixedMemoSize]mixedEntry
}

type mixedEntry struct {
	fn   symbols.FuncID
	args []ast.DTerm
	idx  int32 // -1: the derived symbol is not in the alphabet
	used bool
}

// mixedKey is what tells two mixed applications apart: the function symbol
// and its constants.
var mixedKey = func(app ast.FApp) (symbols.FuncID, []ast.DTerm) { return app.Fn, app.Args }

// index returns the flat index of an application's symbol; ok is false when
// the alphabet does not have it.
func (lw *lowering) index(app ast.FApp) (int32, bool) {
	if len(app.Args) == 0 {
		return lw.fd.SymIndex(app.Fn)
	}
	fn, args := mixedKey(app)
	h := (uint64(fn) + 1) * 0x9e3779b97f4a7c15
	for _, d := range args {
		h = (h + uint64(uint32(d.Const)) + 1) * 0x9e3779b97f4a7c15
	}
	// Up to four slots from the key's own, so two applications a term
	// alternates between do not evict each other.
	home := int(h >> 58)
	e := &lw.memo[home]
	for k := 0; k < 4; k++ {
		c := &lw.memo[(home+k)%mixedMemoSize]
		if !c.used {
			e = c
			break
		}
		if c.fn == fn && slices.Equal(c.args, args) {
			return c.idx, c.idx >= 0
		}
	}
	*e = mixedEntry{fn: fn, args: args, idx: -1, used: true}
	// The lookup does not retain its key, so string(name) stays off the
	// heap, and a derived symbol the program never produced is not interned:
	// it is outside the alphabet either way.
	lw.name = rewrite.PureName(lw.name[:0], lw.tab, app)
	if d, ok := lw.tab.LookupFunc(string(lw.name), 0); ok {
		if i, ok := lw.fd.SymIndex(d); ok {
			e.idx = i
		}
	}
	return e.idx, e.idx >= 0
}

// Ask executes the plan as a yes-no query: ground plans decide membership
// of every atom, open plans test answer-set non-emptiness. The flat-table
// path runs with zero allocations.
func (p *Plan) Ask(ctx context.Context, opts ...Option) (bool, error) {
	op := BuildOpts(opts...)
	ctx = op.apply(ctx)
	return p.ask(ctx, &op)
}

func (p *Plan) ask(ctx context.Context, op *Opts) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, wrapCanceled(err)
	}
	if !p.ground {
		spec, err := p.answerSpec(ctx)
		if err != nil {
			return false, wrapCanceled(err)
		}
		return !spec.IsEmpty(), nil
	}
	m := op.Method
	if m == MethodAuto {
		m = p.snap.method
	}
	if m == MethodEquational {
		ok, err := p.askEquational(ctx)
		return ok, wrapCanceled(err)
	}
	if p.flat {
		_, sp := obs.StartSpan(ctx, "dfa_walk_flat")
		fd := p.snap.spec.Flat()
		ok := true
		for i := range p.steps {
			st := &p.steps[i]
			switch st.kind {
			case stepTrue:
			case stepFalse:
				ok = false
			case stepFlat:
				if !fd.StateHas(fd.Walk(st.syms), st.atom) {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
		sp.End()
		return ok, nil
	}
	ok, err := p.askGroundSlow(ctx)
	return ok, wrapCanceled(err)
}

// askGroundSlow decides a ground query with helper-predicate atoms, which
// it walks over the representatives' table and reads in their full states,
// noticing cancellation between atoms.
func (p *Plan) askGroundSlow(ctx context.Context) (bool, error) {
	spec := p.snap.spec
	gctx, gsp := obs.StartSpan(ctx, "ground_eval")
	defer gsp.End()
	for i := range p.steps {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		st := &p.steps[i]
		switch st.kind {
		case stepTrue:
		case stepFalse:
			return false, nil
		case stepFlat:
			fd := spec.Flat()
			if !fd.StateHas(fd.Walk(st.syms), st.atom) {
				return false, nil
			}
		case stepSlow:
			_, sp := obs.StartSpan(gctx, "dfa_walk")
			ok := p.snap.w.StateContains(spec.State[spec.WalkIndex(st.syms)], st.atom)
			sp.End()
			if !ok {
				return false, nil
			}
		}
	}
	return true, nil
}

// compileEq lowers the ground steps for the equational method: a symbol
// string back to its function symbols through the alphabet, applied to 0 in
// a private term scratch (eqView), and an atom to the representatives whose
// state carries it. eqView is retained by the plan and only ever read after
// this returns, so concurrent equational executions share it safely.
func (p *Plan) compileEq() {
	s := p.snap
	u := term.NewUniverseOver(s.u)
	_, cand := s.canonical()
	p.eqSteps = make([]eqStep, len(p.steps))
	var fns []symbols.FuncID
	for i := range p.steps {
		st := &p.steps[i]
		if st.kind == stepTrue || st.kind == stepFalse {
			p.eqSteps[i] = eqStep{t: term.None, dataOK: st.kind == stepTrue}
			continue
		}
		fns = fns[:0]
		for _, si := range st.syms {
			fns = append(fns, s.spec.Alphabet[si])
		}
		p.eqSteps[i] = eqStep{t: u.ApplyString(term.Zero, fns...), cands: cand[st.atom]}
	}
	p.eqView = u
}

// askEquational decides a ground query by congruence closure against the
// relation R (the equational specification of §3.5), with a pooled
// congruence scratch per execution.
func (p *Plan) askEquational(ctx context.Context) (bool, error) {
	p.eqOnce.Do(p.compileEq)
	if err := ctx.Err(); err != nil {
		return false, err
	}
	eq, _ := p.snap.canonical()
	csc := p.snap.getCongruence()
	defer p.snap.putCongruence(csc)
	_, sp := obs.StartSpan(ctx, "congruence")
	defer sp.End()
	for i := range p.eqSteps {
		st := &p.eqSteps[i]
		if st.t == term.None {
			if !st.dataOK {
				return false, nil
			}
			continue
		}
		if !eq.CongruentToAny(p.eqView, st.t, st.cands, csc) {
			return false, nil
		}
	}
	// |R|: the equation set whose closure Cl(R) decided membership.
	obs.SetMax(ctx, "equations", int64(len(p.snap.spec.Merges)))
	return true, nil
}

// Answers returns a handle on the relational specification of the plan's
// answer set. The specification is a value fixed on the plan: the first
// execution that needs it computes it (under its own ctx, deadline and work
// budget), every later one only reads it. The handle is the caller's own —
// single-goroutine, holding the arena its enumerations intern terms into —
// so concurrent executions of one plan share no lock.
func (p *Plan) Answers(ctx context.Context, opts ...Option) (*query.Answers, error) {
	op := BuildOpts(opts...)
	ctx = op.apply(ctx)
	ans, err := p.answers(ctx)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	return ans, nil
}

func (p *Plan) answers(ctx context.Context) (*query.Answers, error) {
	spec, err := p.answerSpec(ctx)
	if err != nil {
		return nil, err
	}
	return spec.Answers(p.snap.u), nil
}

// specBuild is one computation of a plan's answer specification; spec and
// err are set when done is closed.
type specBuild struct {
	done chan struct{}
	spec *query.Specification
	err  error
}

// answerSpec returns the plan's answer specification, computing it if no
// execution has yet. Concurrent first callers collapse onto one build, but
// not with sync.Once: the build runs under the leader's ctx, deadline and
// work budget, so a result that is the leader's own misfortune (canceled,
// out of time, over budget) is never stored — the next caller builds again,
// and a waiter whose own ctx is still live retries as leader instead of
// inheriting the failure. Errors that depend on the query and the snapshot
// alone are kept like results. Budgets meter work done: a hit is charged
// nothing.
func (p *Plan) answerSpec(ctx context.Context) (*query.Specification, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := p.spec.Load()
		if b == nil {
			b = &specBuild{done: make(chan struct{})}
			if !p.spec.CompareAndSwap(nil, b) {
				continue
			}
			obs.EngineSink().AddAnswerSpecBuilds(1)
			b.spec, b.err = p.buildSpec(ctx)
			if ownFault(b.err) || (b.err == nil && !p.snap.plans.charge(b.spec.Bytes())) {
				// Emptied before the waiters wake, so they see the slot free.
				p.spec.Store(nil)
			}
			close(b.done)
			return b.spec, b.err
		}
		select {
		case <-b.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !ownFault(b.err) {
			obs.EngineSink().AddAnswerSpecHits(1)
			_, sp := obs.StartSpan(ctx, "answer_spec_hit")
			sp.End()
			return b.spec, b.err
		}
	}
}

// ownFault reports whether a build failed for a reason that belongs to the
// request that ran it — its context or its work budget — and not to the
// query.
func ownFault(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, obs.ErrBudgetExceeded)
}

// query returns the plan's query and the table naming it. A ground plan
// keeps neither, only its symbol strings, so its text is parsed again for
// the rare caller that wants its answer specification.
func (p *Plan) query() (*ast.Query, *symbols.Table, error) {
	if p.q != nil {
		return p.q, p.tab, nil
	}
	tab := symbols.NewTableOver(p.snap.tab)
	q, err := parser.ParseQueryTab(tab, p.src)
	if err != nil {
		return nil, nil, err
	}
	if !tab.HasLocal() {
		return q, p.snap.tab, nil
	}
	return q, tab.Clone().Freeze(), nil
}

// buildSpec computes the answer specification from scratch: Theorem 5.1's
// per-slice evaluation over the snapshot's own successor table for a
// uniform query, the enlarged program's specification for any other.
func (p *Plan) buildSpec(ctx context.Context) (*query.Specification, error) {
	s := p.snap
	q, tab, err := p.query()
	if err != nil {
		return nil, err
	}
	if query.IsUniform(q) {
		ictx, sp := obs.StartSpan(ctx, "answers_incremental")
		defer sp.End()
		return query.Evaluate(ictx, frozenBackend{s, tab}, q)
	}
	// The enlarged program gets a private symbol table (the plan's own
	// identifiers stay valid in the clone) and shares the snapshot's rules
	// and facts, which the pipeline only reads.
	prog := &ast.Program{Tab: tab.Clone(), Facts: s.facts, Rules: s.rules}
	return query.Compile(ctx, prog, tab, q, s.engOpts, s.specOpts)
}
