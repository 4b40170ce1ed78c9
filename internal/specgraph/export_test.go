package specgraph

import (
	"funcdb/internal/facts"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Kernel is one way of walking a flat DFA, callable at any length: the walk
// law holds each against Table.Walk.
type Kernel struct {
	Name string
	Walk func(syms []int32) int32
}

// Kernels returns the walks f runs: Walk, one symbol per load.
func (f *FlatDFA) Kernels() []Kernel { return []Kernel{{"step", f.Walk}} }

// PlantedKernels returns the walk of f with a bug the walk law must catch:
// a walk that stops one symbol short.
func (f *FlatDFA) PlantedKernels() []Kernel {
	if f.k == 0 {
		return nil
	}
	return []Kernel{{"last symbol dropped", func(syms []int32) int32 {
		if len(syms) > 0 {
			syms = syms[:len(syms)-1]
		}
		return f.Walk(syms)
	}}}
}

// Merge is one equation of the relation R as the tests read it: a Potential
// term that did not become Active, and the representative of its cluster.
type Merge struct {
	Rep       term.Term
	Potential term.Term
}

// paperLists reads Algorithm Q's lists off the table, the way the paper
// prints them: the Active terms (the representatives at or past the seed
// depth), every Potential term examined, in examination order, and R, one
// Merge per non-tree edge. The terms that never became representatives are
// interned in sp.U.
func paperLists(sp *Spec) (active, potentials []term.Term, merges []Merge) {
	u, k := sp.U, len(sp.Alphabet)
	for c, to := range sp.trans {
		from, via := int32(c/k), int32(c%k)
		if t := u.Apply(sp.Alphabet[via], sp.Reps[from]); u.Depth(t) >= sp.SeedDepth {
			potentials = append(potentials, t)
			if sp.Reps[to] != t {
				merges = append(merges, Merge{sp.Reps[to], t})
			}
		}
	}
	for _, t := range sp.Reps {
		if u.Depth(t) >= sp.SeedDepth {
			active = append(active, t)
		}
	}
	if sp.SeedDepth == 0 {
		potentials = append([]term.Term{term.Zero}, potentials...)
	}
	return active, potentials, merges
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

// StateOfRep returns the full interned state of a representative.
func (sp *Spec) StateOfRep(rep term.Term) facts.StateID {
	i, err := sp.Index(sp.U, rep)
	if err != nil {
		return facts.EmptyState
	}
	return sp.State[i]
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
