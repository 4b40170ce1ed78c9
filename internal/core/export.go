package core

import (
	"context"
	"io"
	"slices"

	"funcdb/internal/facts"
	"funcdb/internal/minimize"
	"funcdb/internal/specgraph"
	"funcdb/internal/specio"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Export writes the database's relational specification (graph form plus
// the equations R and the global facts) as a self-contained JSON document.
// The document can later be answered without the rules: see LoadSpec.
func (db *Database) Export(w io.Writer) error {
	doc, err := db.Document()
	if err != nil {
		return err
	}
	return doc.Write(w)
}

// Document returns the serializable form of the specification.
func (db *Database) Document() (*specio.Document, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp, err := db.graphLocked(context.Background())
	if err != nil {
		return nil, err
	}
	return specio.FromSpec(sp), nil
}

// LoadSpec makes a snapshot of a specification document. The rules are
// forgotten, as section 3 promises, and what is left — (B, T), the global
// facts and R — answers through Prepare and Plan like a compiled program's
// snapshot, by either method: a ground query by its symbol string walked
// over T (or by congruence closure over R), a uniform query by Theorem 5.1.
// Any other query needs the rules and is refused with ErrNeedsRules. A
// document's predicates are all original ones: a query naming one of
// normalization's helper predicates finds nothing.
func LoadSpec(doc *specio.Document) (*Snapshot, error) {
	parent, via, err := doc.Tree()
	if err != nil {
		return nil, err
	}
	tab, u, w := symbols.NewTable(), term.NewUniverse(), facts.NewWorld()
	// The alphabet first, in transition order: the table's only function
	// symbols, so a symbol's id is its index in the alphabet, ascending as a
	// table's alphabet must. A derived g'a'b and succ are pure symbols by
	// name, which is how the query reader finds a mixed application's symbol
	// and a numeral's.
	alphabet := make([]symbols.FuncID, len(doc.Alphabet))
	for i, name := range doc.Alphabet {
		alphabet[i] = tab.Func(name, 0)
	}
	symbol := func(name string) symbols.FuncID {
		f, _ := tab.LookupFunc(name, 0) // Tree checked it is in the alphabet
		return f
	}
	original := make(map[symbols.PredID]bool, len(doc.Predicates))
	for _, p := range doc.Predicates {
		original[tab.Pred(p.Name, p.Arity, p.Functional)] = true
	}
	var args []symbols.ConstID
	atom := func(fd specio.FactDoc, functional bool) facts.AtomID {
		p := tab.Pred(fd.Pred, len(fd.Args), functional)
		original[p] = true
		args = args[:0]
		for _, c := range fd.Args {
			args = append(args, tab.Const(c))
		}
		return w.Atom(p, w.Tuple(args))
	}
	termOf := func(td specio.TermDoc) term.Term {
		t := term.Zero
		for _, name := range td {
			t = u.Apply(symbol(name), t)
		}
		return t
	}

	n, k := len(doc.Reps), len(alphabet)
	reps := make([]term.Term, n) // reps[0] is term.Zero
	for i := 1; i < n; i++ {
		reps[i] = u.Apply(alphabet[via[i]], reps[parent[i]])
	}
	state := make([]facts.StateID, n) // facts.EmptyState where there is no slice
	var buf []facts.AtomID
	for _, sl := range doc.Slices {
		buf = buf[:0]
		for _, fd := range sl.Facts {
			buf = append(buf, atom(fd, true))
		}
		slices.Sort(buf)
		state[sl.Rep] = w.State(slices.Compact(buf))
	}
	trans := make([]int32, n*k)
	for _, e := range doc.Edges {
		trans[e.From*k+int(symbol(e.Fn))] = int32(e.To)
	}
	t, err := specgraph.NewTable(alphabet, reps, state, parent, via, trans)
	if err != nil {
		return nil, err
	}
	global := facts.NewSet()
	for _, fd := range doc.Globals {
		global.Add(w, atom(fd, false))
	}
	merges := make([]specgraph.Merge, len(doc.Equations))
	for i, eq := range doc.Equations {
		merges[i] = specgraph.Merge{Rep: termOf(eq.Left), Potential: termOf(eq.Right)}
	}
	fw := w.Freeze()
	return &Snapshot{
		tab:      tab.Freeze(),
		u:        u.Freeze(),
		w:        fw,
		spec:     specgraph.NewFrozen(doc.SeedDepth, t, merges, global.Freeze(), fw, original, nil),
		temporal: doc.Temporal,
		docOnly:  true,
	}, nil
}

// Minimized builds the observable-equivalence quotient of the graph
// specification (package minimize).
func (db *Database) Minimized() (*minimize.Minimized, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp, err := db.graphLocked(context.Background())
	if err != nil {
		return nil, err
	}
	return minimize.Minimize(sp)
}
