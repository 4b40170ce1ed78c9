// Package funcdb is a deductive database engine for functional deductive
// databases — DATALOG extended with unary and restricted k-ary function
// symbols in one fixed argument position — implementing Chomicki &
// Imieliński, "Relational Specifications of Infinite Query Answers"
// (SIGMOD 1989).
//
// Least fixpoints of such programs are in general infinite. funcdb computes
// finite relational specifications of them and of query answers: graph
// specifications (a primary database plus a finite successor automaton,
// built by the paper's Algorithm Q) and equational specifications (the same
// primary database plus a finite set of ground equations queried through
// congruence closure). Temporal programs — the single-successor special
// case — additionally get a lasso form with O(1) membership.
//
// Quickstart:
//
//	db, err := funcdb.Open(`
//	    Meets(0, tony).
//	    Next(tony, jan).
//	    Next(jan, tony).
//	    Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
//	`, funcdb.Options{})
//	yes, err := db.Ask(ctx, "?- Meets(1000, tony).")
//	ans, err := db.Answers(ctx, "?- Meets(T, X).")
//	ans.Paths(ctx, 6, func(day []funcdb.FuncID, args []funcdb.ConstID) bool { ... })
//	tuples, truncated, err := ans.Render(ctx, 6, 100) // day as "6", args as "tony"
//
// Hot paths prepare a query once and execute the compiled plan many times:
//
//	plan, err := db.Prepare(ctx, "?- Meets(1000, tony).")
//	yes, err := plan.Ask(ctx)
//
// The paper's other forms are built from the graph specification:
//
//	spec, err := db.Graph()
//	form := funcdb.BuildCanonical(spec)      // (C, CONGR); form.EqSpec() is R
//	lasso, err := funcdb.BuildTemporal(spec) // temporal programs only
//
// The package is a façade over the internal packages; see DESIGN.md for the
// full architecture.
package funcdb

import (
	"io"

	"funcdb/internal/ast"
	"funcdb/internal/canonical"
	"funcdb/internal/congruence"
	"funcdb/internal/core"
	"funcdb/internal/engine"
	"funcdb/internal/minimize"
	"funcdb/internal/parser"
	"funcdb/internal/query"
	"funcdb/internal/registry"
	"funcdb/internal/specgraph"
	"funcdb/internal/specio"
	"funcdb/internal/symbols"
	"funcdb/internal/temporal"
	"funcdb/internal/term"
)

// Core API.
type (
	// Database is a compiled functional deductive database.
	Database = core.Database
	// Options configure compilation; the zero value is ready to use.
	Options = core.Options
	// Stats reports specification sizes and engine work.
	Stats = core.Stats
	// Program is a parsed rule set and database.
	Program = ast.Program
	// Query is a positive conjunctive query.
	Query = ast.Query
	// Answers is a finite relational specification of a query answer.
	Answers = query.Answers
	// Tuple is one rendered ground answer (Answers.Render).
	Tuple = query.Tuple
	// GraphSpec is a graph specification (B, T) built by Algorithm Q.
	GraphSpec = specgraph.Spec
	// EqSpec is an equational specification's relation R with its
	// congruence-closure solver.
	EqSpec = congruence.EqSpec
	// TemporalSpec is the lasso form of a temporal program.
	TemporalSpec = temporal.Spec
	// Progression is a closed-form set of days (start + stride*k).
	Progression = temporal.Progression
	// CanonicalForm is the (C, CONGR) canonical form of section 3.6.
	CanonicalForm = canonical.Form
	// EngineOptions bound the fixpoint engine.
	EngineOptions = engine.Options
	// SpecOptions bound Algorithm Q.
	SpecOptions = specgraph.Options
	// SpecDocument is the serialized, self-contained form of a
	// specification (package specio).
	SpecDocument = specio.Document
	// Minimized is the observable-equivalence quotient of a graph
	// specification (package minimize).
	Minimized = minimize.Minimized
	// ClusterView lets a universal invariant inspect one cluster.
	ClusterView = specgraph.ClusterView
	// LintFinding is one diagnostic from Database.Lint.
	LintFinding = core.LintFinding
	// Snapshot is an immutable, lock-free view of a Database at one point
	// in time; any number of goroutines may query one concurrently.
	Snapshot = core.Snapshot
	// Plan is a query compiled against one immutable snapshot; execute it
	// any number of times with Plan.Ask / Plan.Answers.
	Plan = core.Plan
	// Option is a per-query option for Ask/Answers/Plan execution
	// (WithMethod, WithDepth, WithLimit, WithTrace).
	Option = core.Option
	// Opts is the resolved form of a list of Options; see BuildOpts.
	Opts = core.Opts
	// Method selects the ground-query decision procedure (see WithMethod).
	Method = core.Method
	// ParseError is a syntax error with line/column position.
	ParseError = parser.ParseError
)

// Ground-query decision procedures for WithMethod.
const (
	// MethodGraph answers through the graph specification's DFA walk, the
	// default.
	MethodGraph = core.MethodGraph
	// MethodEquational answers through congruence closure over the
	// equational specification.
	MethodEquational = core.MethodEquational
)

// Typed errors shared across the façade, the registry and the server.
var (
	// ErrUnknownDatabase reports a name with no registry entry.
	ErrUnknownDatabase = registry.ErrUnknownDatabase
	// ErrUnsafeQuery reports a query whose free variables do not all
	// occur in its body.
	ErrUnsafeQuery = core.ErrUnsafeQuery
	// ErrCanceled matches (via errors.Is) any evaluation abandoned
	// because its context expired.
	ErrCanceled = core.ErrCanceled
	// ErrNeedsRules reports a non-uniform query against a snapshot loaded
	// from a SpecDocument, which answers uniform ones only (Theorem 5.1).
	ErrNeedsRules = core.ErrNeedsRules
)

// Per-query options for Database.Ask/Answers and Plan execution.
var (
	// WithMethod selects the ground-membership decision procedure for one
	// query.
	WithMethod = core.WithMethod
	// WithDepth bounds the term depth of answer enumeration.
	WithDepth = core.WithDepth
	// WithLimit caps the number of answer tuples an enumerating caller
	// renders.
	WithLimit = core.WithLimit
	// WithTrace records the query's evaluation spans on the given trace.
	WithTrace = core.WithTrace
	// BuildOpts folds a list of options into an Opts value.
	BuildOpts = core.BuildOpts
)

// The paper's other forms, built from a graph specification (Database.Graph).
// Like every use of what Graph returns, building one must not race a
// mutation of the database (Extend, ExtendRules).
var (
	// BuildCanonical builds the canonical form (C, CONGR) of section 3.6;
	// its EqSpec is the equational specification's relation R with its
	// congruence-closure solver.
	BuildCanonical = canonical.Build
	// BuildTemporal builds the lasso form of a temporal program; it errors
	// on any other.
	BuildTemporal = temporal.Build
)

// Minimize builds the observable-equivalence quotient of a graph
// specification (Database.Graph): the smallest automaton with the same
// original-predicate slices along every symbol string. Answering does not
// need it; like the other forms, it must not race a mutation of the
// database.
func Minimize(spec *GraphSpec) (*Minimized, error) { return minimize.Minimize(spec) }

// Equivalent decides whether two minimized specifications represent the
// same least fixpoint over their observable predicates, returning a
// counterexample term otherwise.
func Equivalent(a, b *Minimized) (bool, Term, error) { return minimize.Equivalent(a, b) }

// ReadSpec parses a serialized specification document.
func ReadSpec(r io.Reader) (*SpecDocument, error) { return specio.Read(r) }

// LoadSpec makes a snapshot of a document, with the original rules absent:
// it answers ground and uniform queries (Snapshot.Ask, Snapshot.Answers).
func LoadSpec(doc *SpecDocument) (*Snapshot, error) { return core.LoadSpec(doc) }

// FormatProgressions renders a closed-form day set, e.g. "{1 + 3k}".
func FormatProgressions(ps []Progression) string { return temporal.FormatProgressions(ps) }

// Identifier types.
type (
	// Term is a handle to an interned ground functional term.
	Term = term.Term
	// ConstID identifies an interned data constant.
	ConstID = symbols.ConstID
	// PredID identifies an interned predicate.
	PredID = symbols.PredID
	// FuncID identifies an interned function symbol.
	FuncID = symbols.FuncID
	// VarID identifies an interned variable.
	VarID = symbols.VarID
)

// Zero is the functional constant 0; NoTerm marks the absence of a
// functional component in an answer tuple.
const (
	Zero   = term.Zero
	NoTerm = term.None
)

// Open parses and compiles source text; queries embedded in the source are
// retained on the Database.
func Open(src string, opts Options) (*Database, error) { return core.Open(src, opts) }

// FromProgram compiles an already-built program.
func FromProgram(p *Program, opts Options) (*Database, error) { return core.FromProgram(p, opts) }
