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
// embedded Table, whose Alphabet, Reps and State read as the Spec's own) with
// the engine, universe and world the representatives and their slices live
// in. It is not changed once Build has returned it.
type Spec struct {
	Eng *engine.Engine
	U   *term.Universe
	W   *facts.World

	// SeedDepth is where breadth-first exploration started.
	SeedDepth int
	*Table
	// Active lists just the Active terms found by the algorithm.
	Active []term.Term
	// Potentials lists every term the algorithm examined at or beyond the
	// seed depth, in examination (precedence) order.
	Potentials []term.Term
	// Merges are the (Active, Potential) equivalences found; see Merge.
	Merges []Merge
}

// Build runs Algorithm Q against a solved engine.
func Build(eng *engine.Engine, opts Options) (*Spec, error) {
	if err := eng.Solve(); err != nil {
		return nil, err
	}
	ctx, qspan := obs.StartSpan(eng.Context(), "algoq")
	defer qspan.End()
	wb := obs.BudgetFrom(ctx)
	alphabet := append([]symbols.FuncID(nil), eng.Prep.Funcs...)
	sort.Slice(alphabet, func(i, j int) bool { return alphabet[i] < alphabet[j] })
	tab := newTable(alphabet)
	k := len(alphabet)
	sp := &Spec{Eng: eng, U: eng.U, W: eng.W, SeedDepth: eng.Prep.SeedDepth, Table: tab}

	// Each representative costs one slot in four arrays plus one successor
	// edge per alphabet symbol — the metered arena-bytes estimate a work
	// budget charges per admitted cluster.
	repBytes := int64(64 + 16*k)
	addRep := func(t term.Term, s facts.StateID, parent, via int32) (int32, error) {
		i := tab.add(t, s, parent, via)
		if opts.MaxReps > 0 && len(tab.Reps) > opts.MaxReps {
			return i, fmt.Errorf("specgraph: more than %d representative terms", opts.MaxReps)
		}
		return i, wb.AddBytes(repBytes)
	}

	// Every term below is reached from its parent, a representative whose
	// state is already known, so its own state is one engine step away
	// (Lemma 3.1) and its edge can be recorded as soon as its cluster is.
	root, err := eng.StateOf(term.Zero)
	if err != nil {
		return nil, err
	}

	// Singleton clusters: every term of depth < SeedDepth.
	level := []int32{Root}
	if sp.SeedDepth > 0 {
		if _, err := addRep(term.Zero, root, -1, -1); err != nil {
			return nil, err
		}
	}
	for d := 1; d < sp.SeedDepth; d++ {
		var next []int32
		for _, i := range level {
			for j, f := range alphabet {
				child := sp.U.Apply(f, tab.Reps[i])
				s, err := eng.StateBelow(child, tab.State[i])
				if err != nil {
					return nil, err
				}
				c, err := addRep(child, s, i, int32(j))
				if err != nil {
					return nil, err
				}
				tab.trans[int(i)*k+j] = c
				next = append(next, c)
			}
		}
		level = next
	}

	// Seed the queue with all terms of depth SeedDepth, in precedence order.
	// Each entry names the representative it is a child of and the symbol
	// applied to it (-1, -1: the term 0 itself).
	type potential struct{ from, via int32 }
	var queue []potential
	if sp.SeedDepth == 0 {
		queue = append(queue, potential{-1, -1})
	} else {
		for _, i := range level {
			for j := range alphabet {
				queue = append(queue, potential{i, int32(j)})
			}
		}
	}

	// Breadth-first Potential/Active loop. The queue is in breadth-first
	// order, so one trace span per depth wave is one "round" of Algorithm Q.
	activeByState := make(map[facts.StateID]int32)
	maxDepth := 0
	curDepth := -1
	var rspan *obs.SpanHandle
	for qi := 0; qi < len(queue); qi++ {
		from, via := queue[qi].from, queue[qi].via
		t := term.Zero
		if from >= 0 {
			t = sp.U.Apply(alphabet[via], tab.Reps[from])
		}
		if d := sp.U.Depth(t); d != curDepth {
			rspan.End()
			if budget := obs.DepthBudget(ctx); budget > 0 && d > budget {
				// The wave about to start is deeper than the query's budget:
				// stop before deriving any of it, so the cost of a rejected
				// query is bounded by the budget, not by the rejection.
				return nil, &obs.DepthBudgetError{Max: budget}
			}
			if err := wb.CheckDepth(int64(d)); err != nil {
				return nil, err
			}
			_, rspan = obs.StartSpan(ctx, "algoq_round")
			curDepth = d
			if d > maxDepth {
				maxDepth = d
			}
		}
		if err := wb.AddQSteps(1); err != nil {
			rspan.End()
			return nil, err
		}
		sp.Potentials = append(sp.Potentials, t)
		s := root
		if from >= 0 {
			if s, err = eng.StateBelow(t, tab.State[from]); err != nil {
				rspan.End()
				return nil, err
			}
		}
		rep, ok := activeByState[s]
		if ok {
			sp.Merges = append(sp.Merges, Merge{Rep: tab.Reps[rep], Potential: t})
		} else {
			if rep, err = addRep(t, s, from, via); err != nil {
				rspan.End()
				return nil, err
			}
			activeByState[s] = rep
			sp.Active = append(sp.Active, t)
			for j := range alphabet {
				queue = append(queue, potential{rep, int32(j)})
			}
		}
		if from >= 0 {
			tab.trans[int(from)*k+int(via)] = rep
		}
	}
	rspan.End()
	// Every cell was written when its child term was examined: the table
	// passes the check a table read from a document passes.
	if err := tab.check(); err != nil {
		return nil, err
	}

	// Report Algorithm Q's work: exploration steps, the merge equations that
	// generate Cl(R), and the derivation depth the search reached — the
	// BDD/FC cost driver worth measuring per query.
	// Cumulative equations_total is counted where Cl(R) is actually built
	// (congruence.Solver.Assert); here we only report per-query numbers.
	sink := obs.EngineSink()
	sink.AddQRounds(int64(len(sp.Potentials)))
	sink.ObserveDepth(int64(maxDepth))
	obs.Add(ctx, "algoq_steps", int64(len(sp.Potentials)))
	obs.Add(ctx, "equations", int64(len(sp.Merges)))
	obs.SetMax(ctx, "derivation_depth", int64(maxDepth))
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
	return sp.Eng.HasGlobal(pred, args)
}

// SliceAt returns the primary-database slice B[Reps[i]]: the function-free
// atoms at the representative, restricted to the original program's
// predicates, sorted.
func (sp *Spec) SliceAt(i int) []facts.AtomID {
	return originalSlice(sp.W, sp.State[i], sp.Eng.Prep.OriginalPreds)
}

// originalSlice returns the atoms of state s whose predicates are original,
// in StateAtoms (sorted) order.
func originalSlice(w *facts.World, s facts.StateID, original map[symbols.PredID]bool) []facts.AtomID {
	var out []facts.AtomID
	for _, a := range w.StateAtoms(s) {
		if original[w.AtomPred(a)] {
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
	tab := sp.Eng.Prep.Program.Tab
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
	tab := sp.Eng.Prep.Program.Tab
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
