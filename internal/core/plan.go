// Compiled query plans: the paper's "compile once, answer cheaply" premise
// applied to the serving hot path. Prepare lowers a ground query to symbol
// strings as it reads the text (lower.go), and parses an open one into a
// tree, against one immutable Snapshot; executing the resulting Plan re-does
// none of that work. A ground query's answer is a fixed function of the
// snapshot, so its plan is built with it: the DFA walks over the
// representatives' table run once, when the text is lowered, and executing
// the plan reads one bool. Plans are cached per snapshot, by text for a
// lock-free hit (on a key that samples a bounded part of the text, the text
// then compared whole), and an open plan by canonical query shape
// (QueryShape) too, so spelling variants share one compilation, with
// singleflight collapse of concurrent open misses.
// Mutating the database publishes a fresh Snapshot, which starts with an
// empty plan cache — version-bump invalidation needs no scans.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"

	"funcdb/internal/ast"
	"funcdb/internal/obs"
	"funcdb/internal/parser"
	"funcdb/internal/query"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Plan is a query compiled against one Snapshot. It is immutable after
// Prepare returns, but for the answer specification, which it computes on
// first need and then only reads, and safe for unlimited concurrent
// execution; all per-execution state lives in pooled scratch arenas or in
// the caller's Answers handle. A Plan answers exactly as of its snapshot —
// after a mutation, Prepare against the new snapshot compiles a fresh one.
//
// A ground plan is its text, shape, fingerprint and verdict, and nothing
// else: no steps, no AST, no symbol table. An open plan keeps its query and
// the table naming it.
type Plan struct {
	snap        *Snapshot
	src         string
	shape       string
	fingerprint string // obs.Fingerprint(shape), fixed at compile
	ground      bool
	verdict     bool // a ground plan's answer by the graph method, fixed at compile

	// An open plan's query, and the symbol base of its answer
	// specification: the snapshot's frozen table, or a frozen private clone
	// when the query text interned symbols the snapshot does not know.
	q   *ast.Query
	tab *symbols.Table

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

// planEntry is one slot of the plan cache. The goroutine that makes an open
// plan's entry compiles it and holds pending until it has; whoever else finds
// the entry, by text or by shape, waits on pending and shares the result
// (singleflight collapse). A finder must not be able to run in the
// compiler's place: it may arrive between the entry's publication and the
// compile, with nothing to compile from. A ground plan's entry is made with
// its plan.
type planEntry struct {
	pending sync.WaitGroup
	plan    *Plan
	err     error
}

// planCacheCap bounds the entries of each cache level and planCacheBytes the
// bytes the cache retains: a ground plan keeps its text and shape, an open
// one its AST too, some 40 bytes per application, so a few thousand deep
// plans are megabytes however few entries they are. The cache lives and
// dies with its Snapshot, so eviction is a rare safety valve, not a
// steady-state path: when either bound would be passed, both levels are
// simply flushed. entryOverhead is the fixed cost charged per cached text:
// its slot in the text level and its entry; shapeOverhead is an open
// plan's slot in the shapes map. textsPerKey bounds the texts kept under
// one text key (textKey).
const (
	planCacheCap   = 4096
	planCacheBytes = 16 << 20
	entryOverhead  = 112
	shapeOverhead  = 48
	textsPerKey    = 8
)

// The text key samples a text longer than keyWhole bytes: its length, its
// first and last keyEdge bytes and keyWords interior 8-byte words, evenly
// spaced between the edges. A shorter text is hashed whole.
const (
	keyWhole = 64
	keyEdge  = 16
	keyWords = 4
)

// keySeed seeds the text key, so which texts share a key cannot be known
// outside the process.
var keySeed = maphash.MakeSeed()

// textKey is the text level's key for src: a seeded hash of a bounded
// sample of it, so a lookup costs the same for a text of any length. Texts
// that agree on every sampled byte share a key; the text level tells them
// apart by comparing them whole.
func textKey(src string) uint64 {
	if len(src) <= keyWhole {
		return maphash.String(keySeed, src)
	}
	var b [8 + 2*keyEdge + 8*keyWords]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(src)))
	copy(b[8:], src[:keyEdge])
	copy(b[8+keyEdge:], src[len(src)-keyEdge:])
	for i, off := range keyOffsets(len(src)) {
		copy(b[8+2*keyEdge+8*i:], src[off:off+8])
	}
	return maphash.Bytes(keySeed, b[:])
}

// keyOffsets returns where textKey's interior words start in a text of n >
// keyWhole bytes.
func keyOffsets(n int) (offs [keyWords]int) {
	span := n - 2*keyEdge - 8
	for i := range offs {
		offs[i] = keyEdge + span*(i+1)/(keyWords+1)
	}
	return offs
}

// planCache is the per-snapshot two-level plan cache: a text level for the
// zero-work hit path, and a canonical-shape map so different spellings of
// an open query compile once, and concurrent misses on it once. A ground
// plan is in the text level only: reading a text is its whole compile. The
// text level (textTable) is published behind an atomic pointer and never
// changed in place but by atomic stores of chain heads, so a hit takes no
// lock and writes no shared word. mu guards the rest — the shape map, the
// accounting, and the flush, which swaps in an empty table — and every
// store into the text level, so that a flush cannot fall between a
// writer's admission and its store.
type planCache struct {
	texts  atomic.Pointer[textTable] // nil before the first insertion
	mu     sync.Mutex
	shapes map[string]*planEntry // open plans; nil before the first
	ntexts int                   // texts stored in the current text level
	bytes  int                   // retained by the entries of both maps, as estimated by their inserters
}

// textTable is the text level: an open-addressed table, probed linearly
// from a key's low bits, of chains of the texts under one key. Its slots
// are filled, and a chain's head replaced, by atomic stores under the
// cache's mu; it grows by copying the chain heads into a table twice the
// size, so it is at most half full.
type textTable struct {
	slots []atomic.Pointer[textNode] // len a power of two
	nkeys int                        // slots in use; written under mu
}

// textSlots is the size of a snapshot's first text table.
const textSlots = 64

// textNode is one text of the text level and its entry; next is the text
// stored before it under the same key. Nodes are never changed once stored.
type textNode struct {
	key  uint64
	src  string
	e    *planEntry
	next *textNode
}

// chain returns the chain of key's texts, or nil.
func (t *textTable) chain(key uint64) *textNode {
	mask := uint64(len(t.slots) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		n := t.slots[i].Load()
		if n == nil || n.key == key {
			return n
		}
	}
}

// text returns the node cached for src, whose key is key, or nil.
func (pc *planCache) text(key uint64, src string) *textNode {
	if t := pc.texts.Load(); t != nil {
		for n := t.chain(key); n != nil; n = n.next {
			if n.src == src {
				return n
			}
		}
	}
	return nil
}

// entry returns the entry cached for src, whose key is key, or nil.
func (pc *planCache) entry(key uint64, src string) *planEntry {
	if n := pc.text(key, src); n != nil {
		return n.e
	}
	return nil
}

// room reports whether key has room for one more text: a text past
// textsPerKey under one key is served as the miss it is, uncached, so texts
// built to share a key cost their sender a miss each and the cache a chain
// of at most textsPerKey compares. The caller holds mu.
func (pc *planCache) room(key uint64) bool {
	n := 0
	if t := pc.texts.Load(); t != nil {
		for c := t.chain(key); c != nil; c = c.next {
			n++
		}
	}
	return n < textsPerKey
}

// store caches e for src under key. The caller holds mu, has found room
// under key and has admitted the entry, so the table exists.
func (pc *planCache) store(key uint64, src string, e *planEntry) {
	t := pc.texts.Load()
	if 2*(t.nkeys+1) > len(t.slots) {
		t = t.grow()
		pc.texts.Store(t)
	}
	mask := uint64(len(t.slots) - 1)
	i := key & mask
	for {
		head := t.slots[i].Load()
		if head == nil {
			t.nkeys++
		}
		if head == nil || head.key == key {
			t.slots[i].Store(&textNode{key: key, src: src, e: e, next: head})
			break
		}
		i = (i + 1) & mask
	}
	pc.ntexts++
}

// grow returns a table twice the size holding t's chains. Chains are
// immutable, so the two tables share them: a reader still on t finds every
// text stored before the swap.
func (t *textTable) grow() *textTable {
	g := &textTable{slots: make([]atomic.Pointer[textNode], 2*len(t.slots)), nkeys: t.nkeys}
	mask := uint64(len(g.slots) - 1)
	for i := range t.slots {
		head := t.slots[i].Load()
		if head == nil {
			continue
		}
		j := head.key & mask
		for g.slots[j].Load() != nil {
			j = (j + 1) & mask
		}
		g.slots[j].Store(head)
	}
	return g
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
// cache if it would pass a bound — or making it, on the snapshot's first
// insertion. The caller holds mu.
func (pc *planCache) admit(cost int) {
	if pc.texts.Load() == nil || pc.ntexts >= planCacheCap || len(pc.shapes) >= planCacheCap || pc.bytes+cost > planCacheBytes {
		pc.flush()
	}
	pc.bytes += cost
}

// flush empties the cache: a reader that loaded the text table before the
// swap may still find a plan there, which is as valid as it was. The shape
// map keeps its buckets, so an open working set does not regrow it after
// each flush. The caller holds mu.
func (pc *planCache) flush() {
	pc.texts.Store(&textTable{slots: make([]atomic.Pointer[textNode], textSlots)})
	clear(pc.shapes)
	pc.ntexts, pc.bytes = 0, 0
}

// What a compiled plan retains besides its text and shape: the Plan and
// its fingerprint; an open plan's query, one Atom per atom and one FTerm
// per functional atom.
const (
	planOverhead = 112
	atomBytes    = 40
	ftermBytes   = 32
)

// groundBytes estimates what a ground plan retains beyond its text: its
// shape.
func (p *Plan) groundBytes() int { return planOverhead + len(p.shape) }

// planBytes estimates what an open plan for q retains beyond its text: its
// shape, its slot in the shapes map and its AST.
func planBytes(shape string, q *ast.Query) int {
	n := shapeOverhead + planOverhead + len(shape) + 48 + 4*len(q.Free)
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
// plan cache first: an exact-text hit costs one lock-free table lookup on a
// key of bounded cost and one compare of the text, a novel ground text one
// read of it, a novel spelling of a cached open shape one parse, and
// concurrent misses on one open shape collapse into a single compilation.
func (s *Snapshot) Prepare(ctx context.Context, src string) (*Plan, error) {
	key := textKey(src)
	if e := s.plans.entry(key, src); e != nil {
		e.pending.Wait() // wait out an in-flight compile
		obs.EngineSink().AddPlanHit()
		return e.plan, e.err
	}
	obs.EngineSink().AddPlanMisses(1)
	return s.prepareMiss(ctx, key, src)
}

// PrepareBytes is Prepare for a text in a buffer the caller reuses, such as
// a pooled request body. It keeps nothing of src, and besides the plan it
// returns the text as a string that outlives the buffer: on a hit the
// cache's own, found by the lookup Prepare makes, so nothing is copied; on
// a miss a copy, made before the text is read, which is what the cache and
// the plan keep.
func (s *Snapshot) PrepareBytes(ctx context.Context, src []byte) (*Plan, string, error) {
	view := unsafe.String(unsafe.SliceData(src), len(src))
	key := textKey(view)
	if n := s.plans.text(key, view); n != nil {
		n.e.pending.Wait() // wait out an in-flight compile
		obs.EngineSink().AddPlanHit()
		return n.e.plan, n.src, n.e.err
	}
	obs.EngineSink().AddPlanMisses(1)
	text := string(src)
	p, err := s.prepareMiss(ctx, key, text)
	return p, text, err
}

// prepareMiss makes the plan of a text the cache has not seen. A ground
// query is lowered as it is read (readGround), its shape known only once it
// is compiled; every text the reader declines — an open query, a malformed
// one — is parsed into a tree, which an open plan keeps and a malformed
// text's error comes from. A plan over an eighth of the byte budget, or of
// a text whose key is full, is served without being kept.
func (s *Snapshot) prepareMiss(ctx context.Context, key uint64, src string) (*Plan, error) {
	pc := &s.plans
	_, psp := obs.StartSpan(ctx, "parse")
	if p := s.readGround(src); p != nil {
		psp.End()
		cost := entryOverhead + len(src) + p.groundBytes()
		if cost > planCacheBytes/8 {
			return p, nil // not worth flushing every other plan for
		}
		pc.mu.Lock()
		e := pc.entry(key, src) // a concurrent miss on the same text stored it first
		if e == nil {
			if !pc.room(key) {
				pc.mu.Unlock()
				return p, nil
			}
			pc.admit(cost)
			e = &planEntry{plan: p}
			pc.store(key, src, e)
		}
		pc.mu.Unlock()
		return e.plan, e.err
	}
	ec := s.getEval()
	defer s.putEval(ec)
	q, err := parser.ParseQueryTab(ec.tab, src)
	if err == nil && groundQuery(q) {
		// The reader takes every well-formed ground text but one past 2 GiB
		// (FuzzGroundLowering holds it to that): no tree is lowered here.
		err = fmt.Errorf("core: a ground query of %d bytes is too long to lower", len(src))
	}
	psp.End()
	// The bytes the new entry will retain.
	cost, shape, fingerprint := entryOverhead+len(src), "", ""
	if err == nil {
		shape, fingerprint = shapeAndFingerprint(q, ec.tab)
		cost += planBytes(shape, q)
	}
	uncached := func() (*Plan, error) {
		if err != nil {
			return nil, err
		}
		return s.compile(ctx, ec, src, shape, fingerprint, q), nil
	}
	if cost > planCacheBytes/8 {
		return uncached()
	}
	pc.mu.Lock()
	e, mine := pc.entry(key, src), false // a concurrent miss on the same text stored it first
	if e == nil {
		if !pc.room(key) {
			pc.mu.Unlock()
			return uncached()
		}
		pc.admit(cost)
		if err != nil {
			e = &planEntry{err: err} // nothing to compile
		} else if e = pc.shapes[shape]; e == nil {
			e, mine = &planEntry{}, true
			e.pending.Add(1)
			if pc.shapes == nil {
				pc.shapes = make(map[string]*planEntry)
			}
			pc.shapes[shape] = e
		}
		pc.store(key, src, e)
	}
	pc.mu.Unlock()
	if mine {
		func() {
			defer e.pending.Done()
			e.plan = s.compile(ctx, ec, src, shape, fingerprint, q)
		}()
	}
	e.pending.Wait()
	return e.plan, e.err
}

// compile makes the plan of an open query. ec is the prepare-time scratch
// the query was parsed into; the plan gets a private table when the text
// interned symbols of its own, and retains nothing else of it.
func (s *Snapshot) compile(ctx context.Context, ec *evalCtx, src, shape, fingerprint string, q *ast.Query) *Plan {
	_, csp := obs.StartSpan(ctx, "plan_compile")
	defer csp.End()
	p := &Plan{snap: s, src: src, shape: shape, fingerprint: fingerprint, q: q, tab: s.tab}
	if ec.tab.HasLocal() {
		// The query interned novel symbols: give the plan a private table
		// so the AST's identifiers stay resolvable at execution time.
		p.tab = ec.tab.Clone().Freeze()
	}
	return p
}

// Ask executes the plan as a yes-no query: a ground plan returns the verdict
// it was built with (or, under MethodEquational, reads its text again and
// runs congruence closure), an open plan tests answer-set non-emptiness.
// The graph method's ground path runs with zero allocations.
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
	if op.Method == MethodEquational {
		ok, err := p.askEquational(ctx)
		return ok, wrapCanceled(err)
	}
	return p.verdict, nil
}

// askEquational decides a ground query by congruence closure against the
// relation R (the equational specification of §3.5). The plan keeps no
// steps: each call reads its text again into a pooled sink and decides
// the steps there (congruent). A term is applied only up to
// parser.MaxTermDepth, as the tree parser builds one: past it, the call
// answers the tree parser's error for the text.
func (p *Plan) askEquational(ctx context.Context) (bool, error) {
	s := p.snap
	g := s.lowering()
	defer s.putLowering(g)
	g.read(p.src) // the text the plan was read from, so it reads again
	if g.deep {
		_, err := parser.ParseQueryTab(symbols.NewTableOver(s.tab), p.src)
		if err == nil {
			err = fmt.Errorf("core: a term deeper than %d applications", parser.MaxTermDepth)
		}
		return false, err
	}
	return s.congruent(ctx, g.steps)
}

// congruent decides ground steps by congruence closure, with a pooled
// congruence scratch: each run string is written out to its function
// symbols through the alphabet and applied to 0 in a private term scratch
// over the canonical form's universe, and the atom holds when the term is
// congruent to a representative whose state carries it.
func (s *Snapshot) congruent(ctx context.Context, steps []groundStep) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	cu, eq, cand := s.canonical()
	u := term.NewUniverseOver(cu)
	csc := s.getCongruence()
	defer s.putCongruence(csc)
	_, sp := obs.StartSpan(ctx, "congruence")
	defer sp.End()
	var fns []symbols.FuncID
	for i := range steps {
		st := &steps[i]
		switch st.kind {
		case stepFalse:
			return false, nil
		case stepTrue:
			continue
		}
		fns = fns[:0]
		specgraph.EachRun(st.runs, func(si int32, n int64) {
			for ; n > 0; n-- {
				fns = append(fns, s.spec.Alphabet[si])
			}
		})
		if !eq.CongruentToAny(u, u.ApplyString(term.Zero, fns...), cand[st.atom], csc) {
			return false, nil
		}
	}
	// |R|: the equation set whose closure Cl(R) decided membership.
	obs.SetMax(ctx, "equations", int64(s.spec.NumEquations()))
	return true, nil
}

// Answers returns a handle on the relational specification of the plan's
// answer set. The specification is a value fixed on the plan: the first
// execution that needs it computes it (under its own ctx, deadline and work
// budget), every later one only reads it. The handle is the caller's own —
// single-goroutine, holding the scratch its enumerations walk in — so
// concurrent executions of one plan share no lock.
func (p *Plan) Answers(ctx context.Context, opts ...Option) (*query.Answers, error) {
	return p.AnswersOpts(ctx, BuildOpts(opts...))
}

// AnswersOpts is Answers with options its caller has already resolved, for
// a caller that reads them too (the depth and limit it renders to).
func (p *Plan) AnswersOpts(ctx context.Context, op Opts) (*query.Answers, error) {
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
	return spec.Answers(), nil
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
		// A finished build is taken without asking ctx for its Done channel,
		// which a request's context makes, arming its deadline, on first ask.
		select {
		case <-b.done:
		default:
			select {
			case <-b.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
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
// keeps neither, so its text is parsed again for the rare caller that
// wants its answer specification.
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
// uniform query, the enlarged program's specification for any other — which
// a snapshot of a document, having no program, refuses with ErrNeedsRules.
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
	if s.docOnly {
		return nil, fmt.Errorf("%w: %s", ErrNeedsRules, q.Format(tab))
	}
	// The enlarged program gets a private symbol table (the plan's own
	// identifiers stay valid in the clone) and shares the snapshot's rules
	// and facts, which the pipeline only reads.
	prog := &ast.Program{Tab: tab.Clone(), Facts: s.facts, Rules: s.rules}
	return query.Compile(ctx, prog, tab, q, s.engOpts, s.specOpts)
}
