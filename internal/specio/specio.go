// Package specio serializes relational specifications.
//
// The paper stresses that its representations are explicit: "once it is
// computed, the original deductive rules may be forgotten". This package
// makes that operational. A graph specification (B, T) together with the
// equations R and the global facts is exported to a self-contained JSON
// document; Load rebuilds a standalone answerer from the document alone —
// no rules, no engine — that decides membership by the same DFA walk or
// congruence-closure test. Export to Graphviz DOT is provided for
// inspecting the successor automaton.
package specio

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"funcdb/internal/congruence"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Document is the serialized form of a relational specification. Terms are
// written as their symbol strings (innermost first); all names are surface
// names, so documents are stable across interning orders.
type Document struct {
	// Format identifies the document layout; currently "funcdb/spec/v1".
	Format string `json:"format"`
	// Temporal marks single-successor specifications.
	Temporal bool `json:"temporal"`
	// SeedDepth is Algorithm Q's seed depth (for provenance only).
	SeedDepth int `json:"seed_depth"`
	// Alphabet lists the successor symbols in transition order.
	Alphabet []string `json:"alphabet"`
	// Predicates describes every predicate appearing in slices or globals.
	Predicates []PredicateDoc `json:"predicates"`
	// Reps lists the representative terms in precedence order.
	Reps []TermDoc `json:"representatives"`
	// Edges lists every successor mapping.
	Edges []EdgeDoc `json:"edges"`
	// Slices holds the primary database B.
	Slices []SliceDoc `json:"slices"`
	// Globals holds the non-functional facts.
	Globals []FactDoc `json:"globals"`
	// Equations holds the relation R of the equational specification.
	Equations []EquationDoc `json:"equations"`
}

// PredicateDoc describes one predicate.
type PredicateDoc struct {
	Name       string `json:"name"`
	Arity      int    `json:"arity"` // non-functional arguments
	Functional bool   `json:"functional"`
}

// TermDoc is a ground functional term as its symbol string, innermost
// first; the empty slice is the functional constant 0.
type TermDoc []string

// EdgeDoc is one successor mapping succ_fn(from) = to, by representative
// index.
type EdgeDoc struct {
	From int    `json:"from"`
	Fn   string `json:"fn"`
	To   int    `json:"to"`
}

// FactDoc is a function-free atom.
type FactDoc struct {
	Pred string   `json:"pred"`
	Args []string `json:"args,omitempty"`
}

// SliceDoc is the slice of one representative.
type SliceDoc struct {
	Rep   int       `json:"rep"`
	Facts []FactDoc `json:"facts,omitempty"`
}

// EquationDoc is one ground equation of R.
type EquationDoc struct {
	Left  TermDoc `json:"left"`
	Right TermDoc `json:"right"`
}

// FromSpec builds a Document from a graph specification.
func FromSpec(sp *specgraph.Spec) *Document {
	tab := sp.Eng.Prep.Program.Tab
	doc := &Document{
		Format:    "funcdb/spec/v1",
		Temporal:  sp.Eng.Prep.Temporal,
		SeedDepth: sp.SeedDepth,
	}
	for _, f := range sp.Alphabet {
		doc.Alphabet = append(doc.Alphabet, tab.FuncName(f))
	}
	termDoc := func(t term.Term) TermDoc {
		syms := sp.U.Symbols(t)
		out := make(TermDoc, len(syms))
		for i, f := range syms {
			out[i] = tab.FuncName(f)
		}
		return out
	}
	for _, t := range sp.Reps {
		doc.Reps = append(doc.Reps, termDoc(t))
	}
	preds := make(map[symbols.PredID]bool)
	for i := range sp.Reps {
		for j, to := range sp.Row(int32(i)) {
			doc.Edges = append(doc.Edges, EdgeDoc{From: i, Fn: doc.Alphabet[j], To: int(to)})
		}
		slice := SliceDoc{Rep: i}
		for _, a := range sp.SliceAt(i) {
			p := sp.W.AtomPred(a)
			preds[p] = true
			fd := FactDoc{Pred: tab.PredName(p)}
			for _, c := range sp.W.TupleArgs(sp.W.AtomTuple(a)) {
				fd.Args = append(fd.Args, tab.ConstName(c))
			}
			slice.Facts = append(slice.Facts, fd)
		}
		doc.Slices = append(doc.Slices, slice)
	}
	for _, a := range sp.Eng.Global().All() {
		p := sp.W.AtomPred(a)
		if !sp.Eng.Prep.OriginalPreds[p] {
			continue
		}
		preds[p] = true
		fd := FactDoc{Pred: tab.PredName(p)}
		for _, c := range sp.W.TupleArgs(sp.W.AtomTuple(a)) {
			fd.Args = append(fd.Args, tab.ConstName(c))
		}
		doc.Globals = append(doc.Globals, fd)
	}
	sort.Slice(doc.Globals, func(i, j int) bool {
		a, b := doc.Globals[i], doc.Globals[j]
		if a.Pred != b.Pred {
			return a.Pred < b.Pred
		}
		return strings.Join(a.Args, ",") < strings.Join(b.Args, ",")
	})
	for _, m := range sp.Merges {
		doc.Equations = append(doc.Equations, EquationDoc{
			Left:  termDoc(m.Rep),
			Right: termDoc(m.Potential),
		})
	}
	var predIDs []symbols.PredID
	for p := range preds {
		predIDs = append(predIDs, p)
	}
	sort.Slice(predIDs, func(i, j int) bool { return predIDs[i] < predIDs[j] })
	for _, p := range predIDs {
		info := tab.PredInfo(p)
		doc.Predicates = append(doc.Predicates, PredicateDoc{
			Name: info.Name, Arity: info.Arity, Functional: info.Functional,
		})
	}
	return doc
}

// Write serializes the document as indented JSON.
func (d *Document) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// MaxDocumentBytes bounds the size of a document accepted by Read. It
// exists so that a hostile or corrupted upload cannot exhaust memory; the
// default is far above any specification this engine produces.
var MaxDocumentBytes int64 = 64 << 20

// Read parses and validates a document. Malformed or hostile documents —
// oversized input, duplicate representatives or slices, out-of-range
// successor targets, symbols outside the alphabet — are rejected with an
// explicit error; a document returned by Read always loads.
func Read(r io.Reader) (*Document, error) {
	lr := &io.LimitedReader{R: r, N: MaxDocumentBytes + 1}
	var d Document
	if err := json.NewDecoder(lr).Decode(&d); err != nil {
		if lr.N <= 0 {
			return nil, fmt.Errorf("specio: document exceeds %d bytes", MaxDocumentBytes)
		}
		return nil, fmt.Errorf("specio: %w", err)
	}
	if lr.N <= 0 {
		return nil, fmt.Errorf("specio: document exceeds %d bytes", MaxDocumentBytes)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks the document's structural invariants: the format tag,
// index ranges, alphabet closure, and the absence of duplicates that would
// make the successor automaton ambiguous. Load calls it, so hand-built
// documents get the same scrutiny as ones arriving through Read.
func (d *Document) Validate() error {
	if d.Format != "funcdb/spec/v1" {
		return fmt.Errorf("specio: unsupported format %q", d.Format)
	}
	if d.SeedDepth < 0 {
		return fmt.Errorf("specio: negative seed depth %d", d.SeedDepth)
	}
	alpha := make(map[string]bool, len(d.Alphabet))
	for _, f := range d.Alphabet {
		if f == "" {
			return fmt.Errorf("specio: empty function symbol in alphabet")
		}
		if alpha[f] {
			return fmt.Errorf("specio: duplicate function symbol %q in alphabet", f)
		}
		alpha[f] = true
	}
	inAlphabet := func(td TermDoc, what string) error {
		for _, f := range td {
			if !alpha[f] {
				return fmt.Errorf("specio: %s uses function symbol %q outside the alphabet", what, f)
			}
		}
		return nil
	}
	seenRep := make(map[string]bool, len(d.Reps))
	hasRoot := false
	for i, td := range d.Reps {
		if err := inAlphabet(td, "representative"); err != nil {
			return err
		}
		key := strings.Join(td, "\x00")
		if seenRep[key] {
			return fmt.Errorf("specio: duplicate representative at index %d", i)
		}
		seenRep[key] = true
		if len(td) == 0 {
			hasRoot = true
		}
	}
	if len(d.Reps) > 0 && !hasRoot {
		return fmt.Errorf("specio: document has no root representative 0")
	}
	seenEdge := make(map[EdgeDoc]bool, len(d.Edges))
	for _, e := range d.Edges {
		if e.From < 0 || e.From >= len(d.Reps) || e.To < 0 || e.To >= len(d.Reps) {
			return fmt.Errorf("specio: edge %d -%s-> %d out of range (have %d representatives)",
				e.From, e.Fn, e.To, len(d.Reps))
		}
		if !alpha[e.Fn] {
			return fmt.Errorf("specio: edge over function symbol %q outside the alphabet", e.Fn)
		}
		key := EdgeDoc{From: e.From, Fn: e.Fn}
		if seenEdge[key] {
			return fmt.Errorf("specio: duplicate edge from %d over %q", e.From, e.Fn)
		}
		seenEdge[key] = true
	}
	seenSlice := make(map[int]bool, len(d.Slices))
	for _, sl := range d.Slices {
		if sl.Rep < 0 || sl.Rep >= len(d.Reps) {
			return fmt.Errorf("specio: slice for representative %d out of range (have %d representatives)",
				sl.Rep, len(d.Reps))
		}
		if seenSlice[sl.Rep] {
			return fmt.Errorf("specio: duplicate slice for representative %d", sl.Rep)
		}
		seenSlice[sl.Rep] = true
		for _, fd := range sl.Facts {
			if fd.Pred == "" {
				return fmt.Errorf("specio: fact with empty predicate in slice %d", sl.Rep)
			}
		}
	}
	for _, fd := range d.Globals {
		if fd.Pred == "" {
			return fmt.Errorf("specio: global fact with empty predicate")
		}
	}
	for _, eq := range d.Equations {
		if err := inAlphabet(eq.Left, "equation"); err != nil {
			return err
		}
		if err := inAlphabet(eq.Right, "equation"); err != nil {
			return err
		}
	}
	for _, p := range d.Predicates {
		if p.Name == "" || p.Arity < 0 {
			return fmt.Errorf("specio: invalid predicate declaration %q/%d", p.Name, p.Arity)
		}
	}
	return nil
}

// Standalone answers membership queries from a loaded document alone: the
// original rules are gone, exactly as section 3 promises.
//
// A Standalone is safe for concurrent use: query methods that intern terms
// into its private universe (Term, ParseGroundQuery, ParseTermString, Has,
// HasViaCongruence, Representative) serialize through an internal mutex.
// Callers that reach the universe directly via Universe() must provide
// their own synchronization.
type Standalone struct {
	mu       sync.Mutex
	doc      *Document
	tab      *symbols.Table
	u        *term.Universe
	alphabet []symbols.FuncID
	reps     []term.Term
	repIdx   map[term.Term]int
	succ     map[edge]int
	slices   []map[string]bool // fact key sets per rep
	globals  map[string]bool
	eq       *congruence.EqSpec
	// candidates per fact key, for congruence-closure answering.
	candidates map[string][]term.Term
}

type edge struct {
	from int
	fn   symbols.FuncID
}

func factKey(pred string, args []string) string {
	return pred + "(" + strings.Join(args, ",") + ")"
}

// Load rebuilds a standalone answerer from a document.
func Load(doc *Document) (*Standalone, error) {
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	s := &Standalone{
		doc:        doc,
		tab:        symbols.NewTable(),
		u:          term.NewUniverse(),
		repIdx:     make(map[term.Term]int),
		succ:       make(map[edge]int),
		globals:    make(map[string]bool),
		candidates: make(map[string][]term.Term),
	}
	for _, name := range doc.Alphabet {
		s.alphabet = append(s.alphabet, s.tab.Func(name, 0))
	}
	for i, td := range doc.Reps {
		t, err := s.term(td)
		if err != nil {
			return nil, err
		}
		s.reps = append(s.reps, t)
		s.repIdx[t] = i
		s.slices = append(s.slices, make(map[string]bool))
	}
	for _, e := range doc.Edges {
		f, ok := s.tab.LookupFunc(e.Fn, 0)
		if !ok {
			return nil, fmt.Errorf("specio: edge over unknown symbol %q", e.Fn)
		}
		if e.From < 0 || e.From >= len(s.reps) || e.To < 0 || e.To >= len(s.reps) {
			return nil, fmt.Errorf("specio: edge index out of range")
		}
		s.succ[edge{e.From, f}] = e.To
	}
	for _, sl := range doc.Slices {
		if sl.Rep < 0 || sl.Rep >= len(s.reps) {
			return nil, fmt.Errorf("specio: slice index out of range")
		}
		for _, fd := range sl.Facts {
			key := factKey(fd.Pred, fd.Args)
			s.slices[sl.Rep][key] = true
			s.candidates[key] = append(s.candidates[key], s.reps[sl.Rep])
		}
	}
	for _, fd := range doc.Globals {
		s.globals[factKey(fd.Pred, fd.Args)] = true
	}
	var pairs [][2]term.Term
	for _, eq := range doc.Equations {
		l, err := s.term(eq.Left)
		if err != nil {
			return nil, err
		}
		r, err := s.term(eq.Right)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, [2]term.Term{l, r})
	}
	s.eq = congruence.NewEqSpec(s.u, pairs)
	return s, nil
}

func (s *Standalone) term(td TermDoc) (term.Term, error) {
	t := term.Zero
	for _, name := range td {
		f, ok := s.tab.LookupFunc(name, 0)
		if !ok {
			return term.None, fmt.Errorf("specio: unknown function symbol %q", name)
		}
		t = s.u.Apply(f, t)
	}
	return t, nil
}

// Universe returns the standalone answerer's term universe.
func (s *Standalone) Universe() *term.Universe { return s.u }

// Tab returns the standalone answerer's symbol table (function symbols
// only; predicates and constants live as strings).
func (s *Standalone) Tab() *symbols.Table { return s.tab }

// Term interns the term with the given symbol names, innermost first.
func (s *Standalone) Term(names ...string) (term.Term, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.term(TermDoc(names))
}

// Representative runs the DFA on t and returns the representative index.
func (s *Standalone) Representative(t term.Term) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.representativeLocked(t)
}

func (s *Standalone) representativeLocked(t term.Term) (int, error) {
	cur, ok := s.repIdx[term.Zero]
	if !ok {
		return 0, fmt.Errorf("specio: document has no root representative")
	}
	for _, f := range s.u.Symbols(t) {
		next, ok := s.succ[edge{cur, f}]
		if !ok {
			return 0, fmt.Errorf("specio: missing edge")
		}
		cur = next
	}
	return cur, nil
}

// Has decides pred(t, args) by the DFA walk.
func (s *Standalone) Has(pred string, t term.Term, args ...string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.representativeLocked(t)
	if err != nil {
		return false, err
	}
	return s.slices[rep][factKey(pred, args)], nil
}

// HasViaCongruence decides pred(t, args) by the congruence-closure test
// against the equations R.
func (s *Standalone) HasViaCongruence(pred string, t term.Term, args ...string) bool {
	// The solver reads the universe while extending its subterm graph, so
	// interning elsewhere must be excluded for the duration.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eq.CongruentToAny(t, s.candidates[factKey(pred, args)])
}

// HasData decides a non-functional fact.
func (s *Standalone) HasData(pred string, args ...string) bool {
	return s.globals[factKey(pred, args)]
}

// NumReps returns the number of representatives.
func (s *Standalone) NumReps() int { return len(s.reps) }

// ParseGroundQuery parses the textual ground-query syntax shared by fdbq
// and the fdbd daemon: Pred(TERM[, args...]), optionally ending in ".".
// TERM is parsed by ParseTermString.
func (s *Standalone) ParseGroundQuery(q string) (pred string, tm term.Term, args []string, err error) {
	q = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(q), "."))
	open := strings.IndexByte(q, '(')
	if open <= 0 || !strings.HasSuffix(q, ")") {
		return "", term.None, nil, fmt.Errorf("specio: want Pred(TERM, args...)")
	}
	pred = q[:open]
	inner := q[open+1 : len(q)-1]
	parts := strings.Split(inner, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	if len(parts) == 0 || parts[0] == "" {
		return "", term.None, nil, fmt.Errorf("specio: missing term")
	}
	tm, err = s.ParseTermString(parts[0])
	if err != nil {
		return "", term.None, nil, err
	}
	return pred, tm, parts[1:], nil
}

// ParseTermString parses 0, a non-negative decimal number (a succ-chain
// over 0), or dot-separated function-symbol names innermost-first.
func (s *Standalone) ParseTermString(str string) (term.Term, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if str == "0" {
		return term.Zero, nil
	}
	if n, err := strconv.Atoi(str); err == nil {
		if n < 0 {
			return term.None, fmt.Errorf("specio: negative term %d", n)
		}
		succ, ok := s.tab.LookupFunc(term.SuccName, 0)
		if !ok {
			return term.None, fmt.Errorf("specio: the specification has no successor symbol; use dotted symbols")
		}
		return s.u.Number(n, succ), nil
	}
	return s.term(TermDoc(strings.Split(str, ".")))
}

// DOT renders the successor automaton in Graphviz DOT form. Nodes are
// labelled with the representative term and its slice size.
func (d *Document) DOT() string {
	var b strings.Builder
	b.WriteString("digraph spec {\n  rankdir=LR;\n  node [shape=circle];\n")
	label := func(td TermDoc) string {
		if len(td) == 0 {
			return "0"
		}
		return strings.Join(td, ".")
	}
	sliceSize := make(map[int]int)
	for _, sl := range d.Slices {
		sliceSize[sl.Rep] = len(sl.Facts)
	}
	for i, td := range d.Reps {
		fmt.Fprintf(&b, "  n%d [label=\"%s\\n%d tuples\"];\n", i, label(td), sliceSize[i])
	}
	for _, e := range d.Edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=\"%s\"];\n", e.From, e.To, e.Fn)
	}
	b.WriteString("}\n")
	return b.String()
}
