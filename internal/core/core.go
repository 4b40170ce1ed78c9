// Package core is the public face of funcdb: it ties parsing, preparation,
// the evaluation engine and Algorithm Q into a single Database type, and
// serves what they build — the graph specification (B, T), its walk and
// Theorem 5.1's answer specifications.
//
// A typical session:
//
//	db, err := core.Open(source, core.Options{})
//	spec, err := db.Graph()          // Algorithm Q's (B, T)
//	ans, err := db.Answers(ctx, "?- Meets(T, X).")
//	yes, err := db.Ask(ctx, "?- Meets(4, tony).")
//
// The paper's other forms are built from the graph specification by their
// own packages, which core does not import: canonical.Build(spec) gives the
// canonical form (C, CONGR) and, by its EqSpec, the equational
// specification (B, R); temporal.Build(spec) the lasso form of a temporal
// program. The top-down baseline is topdown.New over db.Prep.
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
	"context"
	"sync"
	"sync/atomic"

	"funcdb/internal/ast"
	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/params"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Method selects how ground membership queries are decided.
type Method int

const (
	// MethodGraph decides membership by the successor-DFA walk over the
	// graph specification (B, T) — the default.
	MethodGraph Method = iota
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
}

// Database is a compiled functional deductive database.
//
// A Database is safe for concurrent use. Ask, Answers and Prepare take no
// lock: they run on the published immutable Snapshot (see Snapshot),
// any number at once, also while a writer is extending the database. The
// mutex is for what touches the live, mutable side — the shared symbol table,
// term universe and fact world: the mutators Extend and ExtendRules, the
// lazily built graph specification (Graph), which is constructed once under
// it and invalidated by the next mutation, the publication of a fresh
// Snapshot after one, and the views that read the live engine (Explain,
// Export, Stats, Lint, Minimized, SourceText). An Answers handle belongs to
// the goroutine that asked for it (the specification behind it is shared and
// immutable; see query.Answers). Code that reads the exported
// Source/Prep/Engine fields directly, or what Graph returned — a
// reproduction built from it (canonical.Build, temporal.Build) or a top-down
// evaluator over Prep included, which interns into the shared universe —
// must not run concurrently with the mutators.
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
	build    *specgraph.Builder // the graph's Algorithm Q while unfinished
	reps     int                // the last graph's representatives: the next build is sized for them
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
	return db.graphLocked(context.Background())
}

// graphLocked builds the graph specification under ctx, installed on the
// live engine: Solve polls it, Algorithm Q checks it at every depth wave and
// charges its step and byte budgets. A killed build publishes nothing, and
// the next resumes where it stopped (specgraph.Builder), so reads that each
// time out before the compile ends still finish it between them.
func (db *Database) graphLocked(ctx context.Context) (*specgraph.Spec, error) {
	if db.graph != nil {
		return db.graph, nil
	}
	if db.build == nil {
		db.build = specgraph.NewBuilder(db.Engine, db.opts.Spec, db.reps)
	}
	db.Engine.SetContext(ctx)
	defer db.Engine.SetContext(nil)
	sp, err := db.build.Run()
	if err != nil {
		return nil, err
	}
	db.graph, db.build = sp, nil
	return sp, nil
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
	// Lasso is Theorem 4.3's tail a and period p, succ^(a+p)(0) =
	// succ^a(0), when the alphabet has one symbol (a temporal program, or a
	// functional one with one symbol); nil otherwise.
	Lasso *specgraph.Lasso
}

// Stats returns size and work measures; it forces the graph specification,
// building it under ctx.
func (db *Database) Stats(ctx context.Context) (Stats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp, err := db.graphLocked(ctx)
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
		Equations: sp.NumEquations(),
		Lasso:     sp.Lasso(),
	}, nil
}

// Stats returns the sizes of the specification the snapshot answers from:
// for a snapshot of a document, all there is to report. C, Params and
// Engine describe a compiled program and stay zero.
func (s *Snapshot) Stats() Stats {
	st := Stats{
		Temporal:  s.temporal,
		SeedDepth: s.spec.SeedDepth,
		Reps:      s.spec.NumStates(),
		Edges:     s.spec.NumStates() * len(s.spec.Alphabet),
		Equations: s.spec.NumEquations(),
		Lasso:     s.spec.Lasso(),
	}
	for _, state := range s.spec.State {
		for _, a := range s.w.StateAtoms(state) {
			if s.spec.OriginalPred(s.w.AtomPred(a)) {
				st.Tuples++
			}
		}
	}
	return st
}
