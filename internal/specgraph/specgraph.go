// Package specgraph implements Algorithm Q (Figure 1 of the paper): the
// construction of the graph specification (B, T) of an infinite least
// fixpoint.
//
// The algorithm explores ground functional terms breadth-first in the
// precedence ordering, starting at the seed depth (c+1 in general, c for
// temporal programs). A Potential term becomes Active — a representative
// term — when no earlier Active term is state-equivalent to it; only Active
// terms are extended. Terms below the seed depth form singleton clusters.
// The successor mappings T map every representative and function symbol to
// the representative of the child's cluster, and the primary database B
// stores the slice L[t] of every representative t.
//
// Membership P(t0, ā) ∈ L is decided by running the successor DFA on t0's
// symbol string (the paper's Link rules) and looking the resulting
// representative up in B.
package specgraph

import (
	"fmt"
	"sort"
	"strings"

	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/obs"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Options bound the construction.
type Options struct {
	// MaxReps aborts when more representative terms than this have been
	// found (0 = no limit). Theorem 4.2: the number of clusters can be
	// exponential in the database size.
	MaxReps int
}

// Merge records one non-Active Potential term and the Active representative
// of its cluster; these pairs are exactly the relation R of the equational
// specification (section 3.5).
type Merge struct {
	Rep       term.Term
	Potential term.Term
}

// Spec is a computed graph specification: the successor table T (the
// embedded Table, whose Alphabet, Reps and State read as the Spec's own),
// the universe and world its representatives and slices live in, and what
// answering keeps of the program — its names, its global relation and which
// of its predicates are original. It holds no engine: once Algorithm Q has
// finished, the rules are forgotten (§3), and a Spec read from a document
// (specio) is the same value. It is not changed once Build has returned it.
type Spec struct {
	U *term.Universe
	W *facts.World
	// Tab names the symbols of the terms and atoms: the program's table.
	Tab *symbols.Table
	// Global holds the non-functional facts of the least fixpoint, frozen
	// when Algorithm Q finished.
	Global *facts.Set
	// OriginalPreds names the predicates of the original program, the ones
	// slices and answers observe (normalization's helpers are not). Nothing
	// writes the map: every frozen form shares it.
	OriginalPreds map[symbols.PredID]bool
	// Temporal marks the specification of a temporal program.
	Temporal bool

	// SeedDepth is where breadth-first exploration started.
	SeedDepth int
	*Table
	// Active lists just the Active terms found by the algorithm (nil for a
	// specification read from a document).
	Active []term.Term
	// Potentials lists every term the algorithm examined at or beyond the
	// seed depth, in examination (precedence) order (nil for a
	// specification read from a document).
	Potentials []term.Term
	// Merges are the (Active, Potential) equivalences found; see Merge.
	Merges []Merge
}

// Build runs Algorithm Q against a solved engine, under the engine's context
// (Engine.SetContext): it stops with the context's error within 256 terms
// once that expires, and charges the work budget the context carries, its
// depth limit included. It is one Run of a fresh Builder.
func Build(eng *engine.Engine, opts Options) (*Spec, error) {
	b := NewBuilder(eng, opts)
	b.depthBound = true
	return b.Run()
}

// Builder is Algorithm Q that survives being stopped. A Run that the
// engine's context stops — its deadline, or a spent step or byte budget —
// keeps every term it finished examining, and the next Run goes on from the
// first one it had not, under its own context; the graph the last Run
// returns is the one an uninterrupted Build returns. A Builder does not look
// at the budget's depth limit: a depth limit is a high-water mark, not a charge, so the
// wave one Run stopped at would stop every later Run too.
type Builder struct {
	eng        *engine.Engine
	opts       Options
	depthBound bool

	sp *Spec
	// queue holds the terms in precedence order, each named by the
	// representative it is a child of and the symbol applied to it (-1, -1:
	// the term 0 itself); qi is the first one not yet examined.
	queue    []struct{ from, via int32 }
	qi       int
	active   map[facts.StateID]int32
	maxDepth int
}

// NewBuilder starts Algorithm Q on eng; nothing runs before Run.
func NewBuilder(eng *engine.Engine, opts Options) *Builder {
	alphabet := append([]symbols.FuncID(nil), eng.Prep.Funcs...)
	sort.Slice(alphabet, func(i, j int) bool { return alphabet[i] < alphabet[j] })
	sp := &Spec{U: eng.U, W: eng.W, Tab: eng.Prep.Program.Tab, OriginalPreds: eng.Prep.OriginalPreds,
		Temporal: eng.Prep.Temporal, SeedDepth: eng.Prep.SeedDepth, Table: newTable(alphabet)}
	return &Builder{eng: eng, opts: opts, sp: sp, queue: []struct{ from, via int32 }{{-1, -1}},
		active: make(map[facts.StateID]int32)}
}

// Run examines the terms left, under the engine's context, and returns the
// finished graph; see Builder for what a stopped Run keeps.
func (b *Builder) Run() (*Spec, error) {
	eng := b.eng
	if err := eng.Solve(); err != nil {
		return nil, err
	}
	ctx, qspan := obs.StartSpan(eng.Context(), "algoq")
	defer qspan.End()
	wb := obs.BudgetFrom(ctx)
	root, err := eng.StateOf(term.Zero)
	if err != nil {
		return nil, err
	}
	sp, tab := b.sp, b.sp.Table
	k := len(tab.Alphabet)
	// The arena-bytes a budget charges per cluster: a slot in four arrays and
	// one successor edge per symbol.
	repBytes := int64(64 + 16*k)

	// Breadth-first over the terms in precedence order, one trace span per
	// depth wave ("round"). A term's parent is a representative of known
	// state, so its own is one engine step away (Lemma 3.1). A term below the
	// seed depth is a singleton cluster; one at or beyond it is a Potential
	// term, Active unless an earlier Active term has its state. A step makes
	// its charges and engine call before its first write, so a failed one
	// leaves nothing behind.
	curDepth := -1
	var rspan *obs.SpanHandle
	defer func() { rspan.End() }()
	for ; b.qi < len(b.queue); b.qi++ {
		from, via := b.queue[b.qi].from, b.queue[b.qi].via
		t := term.Zero
		if from >= 0 {
			t = sp.U.Apply(tab.Alphabet[via], tab.Reps[from])
		}
		d := sp.U.Depth(t)
		potential := d >= sp.SeedDepth
		// The context is looked at every wave and every 256 terms: one wave of
		// an exponential search is too long to wait for.
		if (d != curDepth || b.qi%256 == 0) && ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if d != curDepth {
			if b.depthBound && potential {
				// A wave deeper than the query's budget stops before deriving
				// any of it, so the cost of a rejected query is bounded by the
				// budget, not by the rejection.
				if err := wb.CheckDepth(int64(d)); err != nil {
					return nil, err
				}
			}
			rspan.End()
			_, rspan = obs.StartSpan(ctx, "algoq_round")
			curDepth = d
			b.maxDepth = max(b.maxDepth, d)
		}
		if potential {
			if err := wb.AddQSteps(1); err != nil {
				return nil, err
			}
		}
		s := root
		if from >= 0 {
			if s, err = eng.StateBelow(t, tab.State[from]); err != nil {
				return nil, err
			}
		}
		rep, ok := b.active[s]
		if ok && potential {
			sp.Merges = append(sp.Merges, Merge{Rep: tab.Reps[rep], Potential: t})
		} else {
			if b.opts.MaxReps > 0 && len(tab.Reps) >= b.opts.MaxReps {
				return nil, fmt.Errorf("specgraph: more than %d representative terms", b.opts.MaxReps)
			}
			if err := wb.AddBytes(repBytes); err != nil {
				return nil, err
			}
			rep = tab.add(t, s, from, via)
			if potential {
				b.active[s] = rep
				sp.Active = append(sp.Active, t)
			}
			for j := range tab.Alphabet {
				b.queue = append(b.queue, struct{ from, via int32 }{rep, int32(j)})
			}
		}
		if potential {
			sp.Potentials = append(sp.Potentials, t)
		}
		if from >= 0 {
			tab.trans[int(from)*k+int(via)] = rep
		}
	}
	// Every cell was written when its child term was examined: the table
	// passes the check a table read from a document passes.
	if err := tab.check(); err != nil {
		return nil, err
	}
	// The engine goes on (an Extend absorbs facts into it); the global
	// relation the Spec answers from is the one Algorithm Q finished with.
	sp.Global = eng.Global().Freeze()

	// Report Algorithm Q's work: exploration steps, the merge equations that
	// generate Cl(R), and the derivation depth the search reached — the
	// BDD/FC cost driver worth measuring per query.
	// Cumulative equations_total is counted where Cl(R) is actually built
	// (congruence.Solver.Assert); here we only report per-query numbers.
	sink := obs.EngineSink()
	sink.AddQRounds(int64(len(sp.Potentials)))
	sink.ObserveDepth(int64(b.maxDepth))
	obs.Add(ctx, "algoq_steps", int64(len(sp.Potentials)))
	obs.Add(ctx, "equations", int64(len(sp.Merges)))
	obs.SetMax(ctx, "derivation_depth", int64(b.maxDepth))
	return sp, nil
}

// Successor returns the representative of f applied to the cluster of rep.
func (sp *Spec) Successor(rep term.Term, f symbols.FuncID) (term.Term, bool) {
	i, err := sp.Index(sp.U, rep)
	if err != nil {
		return term.None, false
	}
	to, ok := sp.Step(i, f)
	if !ok {
		return term.None, false
	}
	return sp.Reps[to], true
}

// IsRep reports whether t is a representative term.
func (sp *Spec) IsRep(t term.Term) bool {
	i, err := sp.Index(sp.U, t)
	return err == nil && sp.Reps[i] == t
}

// Representative runs the successor DFA (the paper's Link rules) on t's
// symbol string and returns the representative of t's cluster.
func (sp *Spec) Representative(t term.Term) (term.Term, error) {
	i, err := sp.Index(sp.U, t)
	if err != nil {
		return term.None, err
	}
	return sp.Reps[i], nil
}

// StateOfRep returns the full interned state of a representative.
func (sp *Spec) StateOfRep(rep term.Term) facts.StateID {
	i, err := sp.Index(sp.U, rep)
	if err != nil {
		return facts.EmptyState
	}
	return sp.State[i]
}

// Has decides P(t, args) ∈ L from the specification alone.
func (sp *Spec) Has(pred symbols.PredID, t term.Term, args []symbols.ConstID) (bool, error) {
	i, err := sp.Index(sp.U, t)
	if err != nil {
		return false, err
	}
	a := sp.W.Atom(pred, sp.W.Tuple(args))
	return sp.W.StateContains(sp.State[i], a), nil
}

// HasData decides a non-functional fact from the specification.
func (sp *Spec) HasData(pred symbols.PredID, args []symbols.ConstID) bool {
	a, ok := sp.W.Lookup(pred, args)
	return ok && sp.Global.Has(sp.W, a)
}

// SliceAt returns the primary-database slice B[Reps[i]]: the function-free
// atoms at the representative, restricted to the original program's
// predicates, sorted.
func (sp *Spec) SliceAt(i int) []facts.AtomID {
	var out []facts.AtomID
	for _, a := range sp.W.StateAtoms(sp.State[i]) {
		if sp.OriginalPreds[sp.W.AtomPred(a)] {
			out = append(out, a)
		}
	}
	return out
}

// Slice returns the primary-database slice B[rep] of a representative term;
// see SliceAt.
func (sp *Spec) Slice(rep term.Term) []facts.AtomID {
	i, err := sp.Index(sp.U, rep)
	if err != nil {
		return nil
	}
	return sp.SliceAt(int(i))
}

// ClusterView lets an invariant inspect one cluster's slice.
type ClusterView struct {
	sp *Spec
	i  int
}

// Rep returns the cluster's representative term — a concrete witness for
// every term in the cluster.
func (v ClusterView) Rep() term.Term { return v.sp.Reps[v.i] }

// Has reports whether pred(·, args) holds throughout the cluster.
func (v ClusterView) Has(pred symbols.PredID, args []symbols.ConstID) bool {
	a := v.sp.W.Atom(pred, v.sp.W.Tuple(args))
	return v.sp.W.StateContains(v.sp.State[v.i], a)
}

// CheckAll decides a universal property: whether inv holds of every ground
// functional term of the (infinite) Herbrand universe. Because congruent
// terms satisfy exactly the same facts, checking one representative per
// cluster covers them all — a query form the paper's positive-existential
// language cannot express, but which the finite specification makes
// decidable. On failure the returned term is a concrete counterexample.
func (sp *Spec) CheckAll(inv func(ClusterView) bool) (bool, term.Term) {
	for i, rep := range sp.Reps {
		if !inv(ClusterView{sp: sp, i: i}) {
			return false, rep
		}
	}
	return true, term.None
}

// Size returns the specification's size measures: representatives, edges
// and primary-database tuples.
func (sp *Spec) Size() (reps, edges, tuples int) {
	for i := range sp.Reps {
		tuples += len(sp.SliceAt(i))
	}
	return len(sp.Reps), len(sp.trans), tuples
}

// FormatAtom renders a function-free atom with rep as functional component.
func (sp *Spec) FormatAtom(a facts.AtomID, rep term.Term) string {
	tab := sp.Tab
	var b strings.Builder
	b.WriteString(tab.PredName(sp.W.AtomPred(a)))
	b.WriteByte('(')
	b.WriteString(sp.U.CompactString(rep, tab))
	for _, c := range sp.W.TupleArgs(sp.W.AtomTuple(a)) {
		b.WriteString(", ")
		b.WriteString(tab.ConstName(c))
	}
	b.WriteByte(')')
	return b.String()
}

// Dump renders the whole specification in a readable, stable form: the
// representatives with their primary-database slices, then the successor
// table.
func (sp *Spec) Dump() string {
	tab := sp.Tab
	var b strings.Builder
	fmt.Fprintf(&b, "graph specification: %d representatives, seed depth %d\n",
		len(sp.Reps), sp.SeedDepth)
	b.WriteString("primary database:\n")
	for i, t := range sp.Reps {
		fmt.Fprintf(&b, "  L[%s] = {", sp.U.CompactString(t, tab))
		for j, a := range sp.SliceAt(i) {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(sp.FormatAtom(a, t))
		}
		b.WriteString("}\n")
	}
	b.WriteString("successor mappings:\n")
	for i, t := range sp.Reps {
		for j, to := range sp.Row(int32(i)) {
			fmt.Fprintf(&b, "  succ_%s(%s) = %s\n",
				tab.FuncName(sp.Alphabet[j]), sp.U.CompactString(t, tab), sp.U.CompactString(sp.Reps[to], tab))
		}
	}
	return b.String()
}
