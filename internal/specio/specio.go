// Package specio serializes relational specifications.
//
// The paper stresses that its representations are explicit: "once it is
// computed, the original deductive rules may be forgotten". This package
// makes that operational. A graph specification (B, T) together with the
// equations R and the global facts is exported to a self-contained JSON
// document (or its binary form) by FromSpec, and Document.Spec reads one back
// into the same specgraph.Spec value Algorithm Q builds — no rules, no
// engine. core.LoadSpec freezes that into a snapshot, the way it freezes a
// compiled program's, and it answers through the same plans. Export to
// Graphviz DOT is provided for inspecting the successor automaton.
package specio

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"funcdb/internal/facts"
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
	tab := sp.Tab
	doc := &Document{
		Format:    "funcdb/spec/v1",
		Temporal:  sp.Temporal,
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
	for _, a := range sp.Global.All() {
		p := sp.W.AtomPred(a)
		if !sp.OriginalPreds[p] {
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

// Spec reads the document back into the specification FromSpec wrote it
// from, in a fresh symbol table, universe and world of its own: the same
// value Algorithm Q builds, with no rules behind it (§3). Its predicates are
// all original ones — the document keeps no others — and it has no Active
// or Potential terms. The document is validated first (see Validate).
func (d *Document) Spec() (*specgraph.Spec, error) {
	parent, via, err := d.Tree()
	if err != nil {
		return nil, err
	}
	tab, u, w := symbols.NewTable(), term.NewUniverse(), facts.NewWorld()
	// The alphabet first, in transition order: the table's only function
	// symbols, so a symbol's id is its index in the alphabet, ascending as a
	// table's alphabet must. A derived g'a'b and succ are pure symbols by
	// name, which is how the query reader finds a mixed application's symbol
	// and a numeral's.
	alphabet := make([]symbols.FuncID, len(d.Alphabet))
	for i, name := range d.Alphabet {
		alphabet[i] = tab.Func(name, 0)
	}
	symbol := func(name string) symbols.FuncID {
		f, _ := tab.LookupFunc(name, 0) // Tree checked it is in the alphabet
		return f
	}
	original := make(map[symbols.PredID]bool, len(d.Predicates))
	for _, p := range d.Predicates {
		original[tab.Pred(p.Name, p.Arity, p.Functional)] = true
	}
	var args []symbols.ConstID
	atom := func(fd FactDoc, functional bool) facts.AtomID {
		p := tab.Pred(fd.Pred, len(fd.Args), functional)
		original[p] = true
		args = args[:0]
		for _, c := range fd.Args {
			args = append(args, tab.Const(c))
		}
		return w.Atom(p, w.Tuple(args))
	}
	termOf := func(td TermDoc) term.Term {
		t := term.Zero
		for _, name := range td {
			t = u.Apply(symbol(name), t)
		}
		return t
	}

	n, k := len(d.Reps), len(alphabet)
	reps := make([]term.Term, n) // reps[0] is term.Zero
	for i := 1; i < n; i++ {
		reps[i] = u.Apply(alphabet[via[i]], reps[parent[i]])
	}
	state := make([]facts.StateID, n) // facts.EmptyState where there is no slice
	var buf []facts.AtomID
	for _, sl := range d.Slices {
		buf = buf[:0]
		for _, fd := range sl.Facts {
			buf = append(buf, atom(fd, true))
		}
		slices.Sort(buf)
		state[sl.Rep] = w.State(slices.Compact(buf))
	}
	trans := make([]int32, n*k)
	for _, e := range d.Edges {
		trans[e.From*k+int(symbol(e.Fn))] = int32(e.To)
	}
	t, err := specgraph.NewTable(alphabet, reps, state, parent, via, trans)
	if err != nil {
		return nil, err
	}
	global := facts.NewSet()
	for _, fd := range d.Globals {
		global.Add(w, atom(fd, false))
	}
	merges := make([]specgraph.Merge, len(d.Equations))
	for i, eq := range d.Equations {
		merges[i] = specgraph.Merge{Rep: termOf(eq.Left), Potential: termOf(eq.Right)}
	}
	return &specgraph.Spec{U: u, W: w, Tab: tab, Global: global.Freeze(), OriginalPreds: original,
		Temporal: d.Temporal, SeedDepth: d.SeedDepth, Table: t, Merges: merges}, nil
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
// successor targets, symbols outside the alphabet, a successor table with a
// hole — are rejected with an explicit error; a document returned by Read
// always loads.
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
// index ranges, alphabet closure, the absence of duplicates that would make
// the successor automaton ambiguous, and that the edges are a successor
// table — total, with every representative one edge past an earlier one.
// Spec calls it, so hand-built documents get the same scrutiny as ones
// arriving through Read.
func (d *Document) Validate() error {
	_, _, err := d.Tree()
	return err
}

// Tree validates the document (see Validate) and returns the tree its
// representatives hang from: Reps[i] is Alphabet[via[i]] applied to
// Reps[parent[i]], and representative 0, the root, has -1 for both.
func (d *Document) Tree() (parent, via []int32, err error) {
	if d.Format != "funcdb/spec/v1" {
		return nil, nil, fmt.Errorf("specio: unsupported format %q", d.Format)
	}
	if d.SeedDepth < 0 {
		return nil, nil, fmt.Errorf("specio: negative seed depth %d", d.SeedDepth)
	}
	alpha := make(map[string]int32, len(d.Alphabet))
	for i, f := range d.Alphabet {
		if f == "" {
			return nil, nil, fmt.Errorf("specio: empty function symbol in alphabet")
		}
		if _, dup := alpha[f]; dup {
			return nil, nil, fmt.Errorf("specio: duplicate function symbol %q in alphabet", f)
		}
		alpha[f] = int32(i)
	}
	inAlphabet := func(td TermDoc, what string) error {
		for _, f := range td {
			if _, ok := alpha[f]; !ok {
				return fmt.Errorf("specio: %s uses function symbol %q outside the alphabet", what, f)
			}
		}
		return nil
	}
	repIdx := make(map[string]int, len(d.Reps))
	for i, td := range d.Reps {
		if err := inAlphabet(td, "representative"); err != nil {
			return nil, nil, err
		}
		key := strings.Join(td, "\x00")
		if _, dup := repIdx[key]; dup {
			return nil, nil, fmt.Errorf("specio: duplicate representative at index %d", i)
		}
		repIdx[key] = i
	}
	if len(d.Reps) == 0 || len(d.Reps[0]) != 0 {
		return nil, nil, fmt.Errorf("specio: document has no root representative 0")
	}
	// A successor table has a cell per representative and symbol, and each
	// edge fills one: fewer edges leave a hole, and the count bounds the
	// table before it is allocated.
	k := len(d.Alphabet)
	if len(d.Edges) < len(d.Reps)*k {
		return nil, nil, fmt.Errorf("specio: missing edge: %d edges for %d representatives over %d symbols",
			len(d.Edges), len(d.Reps), k)
	}
	to := make([]int, len(d.Reps)*k)
	for i := range to {
		to[i] = -1
	}
	for _, e := range d.Edges {
		if e.From < 0 || e.From >= len(d.Reps) || e.To < 0 || e.To >= len(d.Reps) {
			return nil, nil, fmt.Errorf("specio: edge %d -%s-> %d out of range (have %d representatives)",
				e.From, e.Fn, e.To, len(d.Reps))
		}
		j, ok := alpha[e.Fn]
		if !ok {
			return nil, nil, fmt.Errorf("specio: edge over function symbol %q outside the alphabet", e.Fn)
		}
		cell := e.From*k + int(j)
		if to[cell] >= 0 {
			return nil, nil, fmt.Errorf("specio: duplicate edge from %d over %q", e.From, e.Fn)
		}
		to[cell] = e.To
	}
	seenSlice := make(map[int]bool, len(d.Slices))
	for _, sl := range d.Slices {
		if sl.Rep < 0 || sl.Rep >= len(d.Reps) {
			return nil, nil, fmt.Errorf("specio: slice for representative %d out of range (have %d representatives)",
				sl.Rep, len(d.Reps))
		}
		if seenSlice[sl.Rep] {
			return nil, nil, fmt.Errorf("specio: duplicate slice for representative %d", sl.Rep)
		}
		seenSlice[sl.Rep] = true
		for _, fd := range sl.Facts {
			if fd.Pred == "" {
				return nil, nil, fmt.Errorf("specio: fact with empty predicate in slice %d", sl.Rep)
			}
		}
	}
	for _, fd := range d.Globals {
		if fd.Pred == "" {
			return nil, nil, fmt.Errorf("specio: global fact with empty predicate")
		}
	}
	for _, eq := range d.Equations {
		if err := inAlphabet(eq.Left, "equation"); err != nil {
			return nil, nil, err
		}
		if err := inAlphabet(eq.Right, "equation"); err != nil {
			return nil, nil, err
		}
	}
	for _, p := range d.Predicates {
		if p.Name == "" || p.Arity < 0 {
			return nil, nil, fmt.Errorf("specio: invalid predicate declaration %q/%d", p.Name, p.Arity)
		}
	}
	// The edges are as many as the cells and no two fill one, so every cell
	// is filled. What is left is the tree: every representative but the root
	// is one edge past the representative its symbol string less the last
	// spells, which comes before it.
	parent, via = make([]int32, len(d.Reps)), make([]int32, len(d.Reps))
	parent[0], via[0] = -1, -1
	for i := 1; i < len(d.Reps); i++ {
		td := d.Reps[i]
		p, ok := repIdx[strings.Join(td[:len(td)-1], "\x00")]
		if !ok || p >= i {
			return nil, nil, fmt.Errorf("specio: representative %d is not one symbol past an earlier representative", i)
		}
		j := alpha[td[len(td)-1]]
		if to[p*k+int(j)] != i {
			return nil, nil, fmt.Errorf("specio: edge %d -%s-> does not lead to representative %d", p, td[len(td)-1], i)
		}
		parent[i], via[i] = int32(p), j
	}
	return parent, via, nil
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
