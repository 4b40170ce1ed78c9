package core

import (
	"context"
	"sync"

	"funcdb/internal/ast"
	"funcdb/internal/congruence"
	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/minimize"
	"funcdb/internal/obs"
	"funcdb/internal/parser"
	"funcdb/internal/query"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Snapshot is an immutable view of a compiled database at one point in
// time. Any number of goroutines may evaluate queries against one Snapshot
// concurrently with no locking at all: the symbol table, term universe and
// fact world are frozen views of the live stores — the same records, cut at
// their length at publish time — the graph specification is frozen, and
// every query gets private overlays for whatever it needs to intern (novel
// terms, tuples, symbols) — drawn from a sync.Pool, so steady-state asks
// allocate nothing. Mutating the owning Database (Extend, ExtendRules)
// never changes a published Snapshot — it simply becomes stale (its plan
// cache with it), and the next Database.Snapshot call builds a fresh one.
type Snapshot struct {
	// facts and rules are the source program's, cut at their lengths: the
	// writer only appends to them (an Extend that fails truncates a tail no
	// snapshot has seen), and nothing modifies an atom once it is there —
	// preparation and the enlarged program of a non-uniform query clone
	// what they rewrite.
	facts []ast.Atom
	rules []ast.Rule
	tab   *symbols.Table
	u     *term.Universe
	w     *facts.World
	spec  *specgraph.Frozen

	engOpts  engine.Options
	specOpts specgraph.Options
	temporal bool
	// docOnly marks a snapshot of a specification document (LoadSpec): it
	// has no rules, so it refuses a non-uniform query.
	docOnly bool

	// plans is the per-snapshot compiled-plan cache; starting empty on
	// every publish is exactly the strict version-bump invalidation.
	plans planCache

	// Pooled per-query scratch arenas.
	evalPool  sync.Pool // *evalCtx
	cscPool   sync.Pool // *congruence.Scratch
	lowerPool sync.Pool // *groundLowering

	// canonical form, built lazily (first equational-method query), in a
	// universe of its own.
	canonOnce sync.Once
	canonU    *term.Universe
	canonEq   *congruence.Frozen
	canonCand map[facts.AtomID][]term.Term
}

// Snapshot is SnapshotContext with no deadline and no budget.
func (db *Database) Snapshot() (*Snapshot, error) { return db.SnapshotContext(context.Background()) }

// SnapshotContext returns the current immutable view, building (and caching)
// it under the writer lock on first use after a mutation — the one moment a
// read pays for compilation, recorded as a "compile" span on ctx's trace. The
// build runs under ctx (see graphLocked): an expired ctx is an error matching
// ErrCanceled, an exhausted budget one matching obs.ErrBudgetExceeded, and
// either way nothing is published. The returned value is safe for unlimited
// concurrent use and stays valid — answering consistently as of its creation
// — even while the database is extended or recompiled underneath it.
func (db *Database) SnapshotContext(ctx context.Context) (*Snapshot, error) {
	if s := db.snap.Load(); s != nil {
		return s, nil
	}
	ctx, span := obs.StartSpan(ctx, "compile")
	defer span.End()
	db.mu.Lock()
	defer db.mu.Unlock()
	if s := db.snap.Load(); s != nil {
		return s, nil
	}
	sp, err := db.graphLocked(ctx)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	// Minimize at publish time so the flat tables are built over the
	// coarsest observable-equivalence quotient.
	m, err := minimize.Minimize(sp)
	if err != nil {
		return nil, err
	}
	s := freeze(sp, m.Quotient())
	s.facts = db.Source.Facts[:len(db.Source.Facts):len(db.Source.Facts)]
	s.rules = db.Source.Rules[:len(db.Source.Rules):len(db.Source.Rules)]
	s.engOpts, s.specOpts = db.opts.Engine, db.opts.Spec
	db.snap.Store(s)
	return s, nil
}

// freeze makes the snapshot of a specification, a compiled program's or a
// document's alike: its names, terms and atoms cut at their lengths now, and
// flat tables over the quotient q (nil: the identity).
func freeze(sp *specgraph.Spec, q specgraph.Quotient) *Snapshot {
	return &Snapshot{
		tab:      sp.Tab.Freeze(),
		u:        sp.U.Freeze(),
		w:        sp.W.Freeze(),
		spec:     sp.FreezeQuotient(q),
		temporal: sp.Temporal,
	}
}

// canonical lazily builds the frozen canonical form: the relation R read off
// the table, its congruence and the candidate map, all over a universe of
// their own (the snapshot's holds no Potential term), which an equational
// plan's query terms overlay. The build reads only frozen data, so racing
// goroutines are safe; sync.Once elects one builder.
func (s *Snapshot) canonical() (*term.Universe, *congruence.Frozen, map[facts.AtomID][]term.Term) {
	s.canonOnce.Do(func() {
		u := term.NewUniverse()
		reps := s.spec.Intern(u)
		slv := congruence.NewSolver(u)
		s.spec.NonTree(func(from, via, to int32) {
			slv.Assert(reps[to], u.Apply(s.spec.Alphabet[via], reps[from]))
		})
		s.canonU, s.canonEq = u.Freeze(), slv.Freeze()
		// Every atom of a representative's state is a candidate, those of
		// normalization's helper predicates too: a ground plan decides
		// them, and congruent terms have equal states.
		s.canonCand = make(map[facts.AtomID][]term.Term)
		for i, rep := range reps {
			for _, a := range s.w.StateAtoms(s.spec.State[i]) {
				s.canonCand[a] = append(s.canonCand[a], rep)
			}
		}
	})
	return s.canonU, s.canonEq, s.canonCand
}

// evalCtx bundles one query's scratch overlays over the snapshot: the
// symbols its text brings and the tuples and atoms its ground atoms name. It
// is single-goroutine; a prepare acquires one from the snapshot's pool and
// returns it when no produced value retains the overlays.
type evalCtx struct {
	tab *symbols.Table
	w   *facts.World
}

// getEval acquires a pooled scratch arena reset over the snapshot.
func (s *Snapshot) getEval() *evalCtx {
	if v := s.evalPool.Get(); v != nil {
		ec := v.(*evalCtx)
		ec.tab.Reset(s.tab)
		ec.w.Reset(s.w)
		obs.EngineSink().AddArenaReuses(1)
		return ec
	}
	return &evalCtx{tab: symbols.NewTableOver(s.tab), w: facts.NewWorldOver(s.w)}
}

// putEval returns an arena to the pool. Never call it when the execution's
// result (a parsed AST) retains the overlays.
func (s *Snapshot) putEval(ec *evalCtx) { s.evalPool.Put(ec) }

// getCongruence acquires a pooled congruence scratch.
func (s *Snapshot) getCongruence() *congruence.Scratch {
	if v := s.cscPool.Get(); v != nil {
		csc := v.(*congruence.Scratch)
		csc.Reset()
		obs.EngineSink().AddArenaReuses(1)
		return csc
	}
	return congruence.NewScratch()
}

// putCongruence returns a congruence scratch to the pool.
func (s *Snapshot) putCongruence(csc *congruence.Scratch) { s.cscPool.Put(csc) }

// frozenBackend adapts a snapshot to query.Backend. Evaluating an open
// query only reads: the frozen world is used as it is, with no scratch
// overlay, and the answer is specified over the snapshot's own successor
// table. names is the plan's symbol table (the snapshot's, or a private
// superset when the query text brought symbols of its own).
type frozenBackend struct {
	s     *Snapshot
	names *symbols.Table
}

func (b frozenBackend) Facts() *facts.World          { return b.s.w }
func (b frozenBackend) Names() *symbols.Table        { return b.names }
func (b frozenBackend) Successors() *specgraph.Table { return b.s.spec.Table }
func (b frozenBackend) GlobalByPred(p symbols.PredID) []facts.AtomID {
	return b.s.spec.GlobalByPred(p)
}

// ParseQuery parses a query against the snapshot's symbols without touching
// them: novel symbols land in a pooled scratch overlay that is reset before
// reuse, so the returned AST must be treated as read-only text analysis
// (Prepare is the way to get an executable form).
func (s *Snapshot) ParseQuery(src string) (*ast.Query, error) {
	ec := s.getEval()
	q, err := parser.ParseQueryTab(ec.tab, src)
	if err != nil {
		s.putEval(ec)
		return nil, err
	}
	// The AST references overlay symbol ids; keep the overlay out of the
	// pool so a later reset cannot invalidate them.
	return q, nil
}

// Ask answers a yes-no query against the snapshot, lock-free: Prepare (or a
// plan-cache hit) followed by plan execution. ctx cancels long evaluations;
// an expired context yields an error matching ErrCanceled and leaves the
// snapshot untouched (all intermediate state is query-local).
func (s *Snapshot) Ask(ctx context.Context, src string, opts ...Option) (bool, error) {
	op := BuildOpts(opts...)
	ctx = op.apply(ctx)
	p, err := s.Prepare(ctx, src)
	if err != nil {
		return false, err
	}
	return p.ask(ctx, &op)
}

// Answers returns a handle on the relational specification of a query's
// answer set against the snapshot, lock-free: Prepare (or a plan-cache hit)
// followed by Plan.Answers, which see. Enumeration renders through
// Answers.TermString and friends, never through the live database.
func (s *Snapshot) Answers(ctx context.Context, src string, opts ...Option) (*query.Answers, error) {
	op := BuildOpts(opts...)
	ctx = op.apply(ctx)
	p, err := s.Prepare(ctx, src)
	if err != nil {
		return nil, err
	}
	ans, err := p.answers(ctx)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	return ans, nil
}

// constArgs returns the data arguments of a ground atom.
func constArgs(a *ast.Atom) []symbols.ConstID {
	args := make([]symbols.ConstID, len(a.Args))
	for i, d := range a.Args {
		args[i] = d.Const
	}
	return args
}

// ForEach runs f(0), …, f(n-1) on a bounded worker pool (workers <= 0 picks
// a sensible default) and waits for all of them: the pool for callers that
// batch plans they prepared themselves (the daemon's batch endpoint).
func ForEach(n, workers int, f func(j int)) {
	if workers <= 0 {
		workers = 4
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range idx {
				f(j)
			}
		}()
	}
	for j := 0; j < n; j++ {
		idx <- j
	}
	close(idx)
	wg.Wait()
}

// Prepare compiles a query against the database's current snapshot,
// consulting the snapshot's plan cache. The returned plan answers as of
// that snapshot; after a mutation, Prepare compiles against the fresh one.
func (db *Database) Prepare(ctx context.Context, src string) (*Plan, error) {
	s, err := db.SnapshotContext(ctx)
	if err != nil {
		return nil, err
	}
	return s.Prepare(ctx, src)
}

// Ask answers a yes-no query on the current snapshot: the read runs
// lock-free and concurrently with other readers, honoring ctx and the
// given options (method, depth, trace).
func (db *Database) Ask(ctx context.Context, src string, opts ...Option) (bool, error) {
	op := BuildOpts(opts...)
	s, err := db.SnapshotContext(op.apply(ctx))
	if err != nil {
		return false, err
	}
	return s.Ask(ctx, src, opts...)
}

// Answers computes a query's answer specification on the current snapshot,
// lock-free, honoring ctx and the given options.
func (db *Database) Answers(ctx context.Context, src string, opts ...Option) (*query.Answers, error) {
	op := BuildOpts(opts...)
	s, err := db.SnapshotContext(op.apply(ctx))
	if err != nil {
		return nil, err
	}
	return s.Answers(ctx, src, opts...)
}
