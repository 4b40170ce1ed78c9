// Package core is the public face of funcdb: it ties parsing, preparation,
// the evaluation engine, and the specification builders of the paper into a
// single Database type.
//
// A typical session:
//
//	db, err := core.Open(source, core.Options{})
//	spec, err := db.Graph()          // Algorithm Q's (B, T)
//	eq, err := db.Equational()       // the (B, R) specification
//	ans, err := db.Answers(ctx, "?- Meets(T, X).")
//	yes, err := db.Ask(ctx, "?- Meets(4, tony).")
//
// Hot paths prepare once and execute many times:
//
//	plan, err := db.Prepare(ctx, "?- Meets(4, tony).")
//	yes, err := plan.Ask(ctx)
//
// All representations are finite, effectively computed, and explicit: once
// built, membership and enumeration never consult the original rules.
package core

import (
	"sync"
	"sync/atomic"

	"funcdb/internal/ast"
	"funcdb/internal/canonical"
	"funcdb/internal/congruence"
	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/params"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/temporal"
	"funcdb/internal/term"
	"funcdb/internal/topdown"
)

// Method selects how ground membership queries are decided.
type Method int

const (
	// MethodAuto lets the database pick; currently the graph walk.
	MethodAuto Method = iota
	// MethodGraph decides membership by the successor-DFA walk over the
	// graph specification (B, T) — the default.
	MethodGraph
	// MethodEquational decides ground membership by congruence closure
	// against the relation R of the canonical form (§3.5). Open queries
	// still evaluate through the graph specification.
	MethodEquational
)

// Options configure a Database.
type Options struct {
	// Engine bounds the fixpoint engine's work.
	Engine engine.Options
	// Spec bounds Algorithm Q.
	Spec specgraph.Options
	// Method selects the ground-membership decision procedure for Ask.
	Method Method
}

// Database is a compiled functional deductive database.
//
// A Database is safe for concurrent use. Ask, Answers and Prepare take no
// lock: they run on the published immutable Snapshot (see Snapshot),
// any number at once, also while a writer is extending the database. The
// mutex is for what touches the live, mutable side — the shared symbol table,
// term universe and fact world: the mutators Extend and ExtendRules, the
// lazily built specifications (Graph, Equational, Temporal, Canonical), which
// are constructed once under it and invalidated by the next mutation, the
// publication of a fresh Snapshot after one, and the views that read the live
// engine (Explain, Export, Stats, Lint, Minimized, SourceText). An Answers
// handle belongs to the goroutine that asked for it (the specification
// behind it is shared and immutable; see query.Answers). Code that reads the
// exported Source/Prep/Engine fields directly must not run concurrently with
// the mutators; Prover evaluators are single-goroutine (see Prover).
type Database struct {
	Source *ast.Program
	Prep   *rewrite.Prepared
	Engine *engine.Engine

	// mu guards the lazy specification fields and serializes every
	// operation that may mutate the shared symbol table, term universe or
	// fact world. Public methods lock it; unexported *Locked variants
	// assume it is held.
	mu sync.Mutex

	opts     Options
	graph    *specgraph.Spec
	eq       *congruence.EqSpec
	lasso    *temporal.Spec
	canon    *canonical.Form
	queries  []ast.Query
	universe *term.Universe
	world    *facts.World
	sig      signature

	// snap caches the published immutable Snapshot; invalidate() clears it.
	snap atomic.Pointer[Snapshot]
}

// Open parses source text and compiles it into a Database. Queries embedded
// in the source are retained and accessible via EmbeddedQueries.
func Open(src string, opts Options) (*Database, error) {
	res, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	db, err := FromProgram(res.Program, opts)
	if err != nil {
		return nil, err
	}
	db.queries = res.Queries
	return db, nil
}

// FromProgram compiles an already-built program.
func FromProgram(p *ast.Program, opts Options) (*Database, error) {
	prep, err := rewrite.Prepare(p)
	if err != nil {
		return nil, err
	}
	u := term.NewUniverse()
	w := facts.NewWorld()
	eng, err := engine.New(prep, u, w, opts.Engine)
	if err != nil {
		return nil, err
	}
	return &Database{
		Source:   p,
		Prep:     prep,
		Engine:   eng,
		opts:     opts,
		universe: u,
		world:    w,
		sig:      signatureOf(p, prep),
	}, nil
}

// signature is what Extend has to know of the compiled program to place a
// new fact without walking it: the constants it uses, its alphabet, and
// whether it has mixed function symbols. (Its predicates are
// Prep.OriginalPreds; its ground depth Prep.C decides nothing, a deeper fact
// raises it.) Facts taking the monotone path add their constants; every
// recompile computes it afresh.
type signature struct {
	consts map[symbols.ConstID]bool
	funcs  map[symbols.FuncID]bool
	mixed  bool
}

func signatureOf(p *ast.Program, prep *rewrite.Prepared) signature {
	sig := signature{
		consts: make(map[symbols.ConstID]bool),
		funcs:  make(map[symbols.FuncID]bool, len(prep.Funcs)),
		mixed:  p.HasMixed(),
	}
	for _, c := range p.ConstsUsed() {
		sig.consts[c] = true
	}
	for _, f := range prep.Funcs {
		sig.funcs[f] = true
	}
	return sig
}

// EmbeddedQueries returns the queries that appeared in the source text.
func (db *Database) EmbeddedQueries() []ast.Query { return db.queries }

// Universe returns the database's term universe.
func (db *Database) Universe() *term.Universe { return db.universe }

// SourceText renders the current program — including facts added by Extend
// and rules added by ExtendRules — in the surface syntax, under the
// database lock so a concurrent Extend cannot tear the view. Reopening the
// returned text reproduces the database's answer semantics; checkpointing
// uses exactly this.
func (db *Database) SourceText() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.Source.Format()
}

// Tab returns the symbol table.
func (db *Database) Tab() *symbols.Table { return db.Source.Tab }

// Graph builds (once) and returns the graph specification (B, T).
func (db *Database) Graph() (*specgraph.Spec, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.graphLocked()
}

func (db *Database) graphLocked() (*specgraph.Spec, error) {
	if db.graph != nil {
		return db.graph, nil
	}
	sp, err := specgraph.Build(db.Engine, db.opts.Spec)
	if err != nil {
		return nil, err
	}
	db.graph = sp
	return sp, nil
}

// Equational builds (once) and returns the equational specification's
// relation R with its congruence-closure solver. The primary database B is
// shared with the graph specification.
func (db *Database) Equational() (*congruence.EqSpec, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.eq != nil {
		return db.eq, nil
	}
	sp, err := db.graphLocked()
	if err != nil {
		return nil, err
	}
	pairs := make([][2]term.Term, 0, len(sp.Merges))
	for _, m := range sp.Merges {
		pairs = append(pairs, [2]term.Term{m.Rep, m.Potential})
	}
	db.eq = congruence.NewEqSpec(db.universe, pairs)
	return db.eq, nil
}

// Temporal builds (once) and returns the lasso specification. It errors on
// non-temporal programs.
func (db *Database) Temporal() (*temporal.Spec, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.lasso != nil {
		return db.lasso, nil
	}
	sp, err := db.graphLocked()
	if err != nil {
		return nil, err
	}
	t, err := temporal.Build(sp)
	if err != nil {
		return nil, err
	}
	db.lasso = t
	return t, nil
}

// Canonical builds (once) and returns the canonical form (C, CONGR).
func (db *Database) Canonical() (*canonical.Form, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.canonicalLocked()
}

func (db *Database) canonicalLocked() (*canonical.Form, error) {
	if db.canon != nil {
		return db.canon, nil
	}
	sp, err := db.graphLocked()
	if err != nil {
		return nil, err
	}
	db.canon = canonical.Build(sp)
	return db.canon, nil
}

// ParseQuery parses a query against this database's symbols.
func (db *Database) ParseQuery(src string) (*ast.Query, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return parser.ParseQuery(db.Source, src)
}

func ftIsPure(ft *ast.FTerm) bool {
	for _, app := range ft.Apps {
		if len(app.Args) != 0 {
			return false
		}
	}
	return true
}

// Prover builds a goal-directed (tabled top-down) evaluator over this
// database's program, sharing its term universe. Use it when only a few
// ground goals are needed and building the full specification would be
// wasteful; see package topdown for the completeness contract. The
// returned evaluator mutates the shared universe on every proof and is
// NOT safe for concurrent use — drive it from a single goroutine, with no
// concurrent queries on the Database.
func (db *Database) Prover(opts topdown.Options) (*topdown.Evaluator, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return topdown.New(db.Prep, db.universe, db.world, opts)
}

// Stats summarizes the compiled database.
type Stats struct {
	Temporal  bool
	C         int
	SeedDepth int
	Params    params.Params
	Engine    engine.Stats
	Reps      int
	Edges     int
	Tuples    int
	Equations int
}

// Stats returns size and work measures; it forces the graph specification.
func (db *Database) Stats() (Stats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp, err := db.graphLocked()
	if err != nil {
		return Stats{}, err
	}
	reps, edges, tuples := sp.Size()
	return Stats{
		Temporal:  db.Prep.Temporal,
		C:         db.Prep.C,
		SeedDepth: db.Prep.SeedDepth,
		Params:    params.Of(db.Source),
		Engine:    db.Engine.Stats(),
		Reps:      reps,
		Edges:     edges,
		Tuples:    tuples,
		Equations: len(sp.Merges),
	}, nil
}
