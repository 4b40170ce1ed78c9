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

// Kernels returns Walk itself and every kernel f can run, whichever Walk
// would pick: the step kernel for any alphabet, the stride kernel for two
// or more symbols (with its table built now, whatever its size), the lasso
// kernel for one symbol.
func (f *FlatDFA) Kernels() []Kernel {
	ks := []Kernel{{"walk", f.Walk}}
	if f.k >= 1 {
		ks = append(ks, Kernel{"step", f.step})
	}
	if f.k >= 2 {
		pairs := f.buildPairs()
		ks = append(ks, Kernel{"stride", func(syms []int32) int32 { return f.stride(pairs, syms) }})
	}
	if f.k == 1 {
		ks = append(ks, Kernel{"lasso", func(syms []int32) int32 { return f.lasso(len(syms)) }})
	}
	return ks
}

// Orbit reports the tail and period of the root's orbit of a one-symbol
// flat DFA.
func (f *FlatDFA) Orbit() (tail, period int, ok bool) {
	if f.k != 1 {
		return 0, 0, false
	}
	return f.tail, len(f.orbit) - f.tail, true
}

// PlantedKernels returns the kernels of f with one bug each, the bugs the
// walk law must catch:
//
//   - the lasso off by one at n = a+p: `n <= a+p` where `n < a+p` is meant,
//     so the orbit is read one past its end;
//   - the Σ² cell composed in the wrong order: (state, a, b) holds the
//     successor under b, then a;
//   - the stride kernel dropping an odd last symbol.
func (f *FlatDFA) PlantedKernels() []Kernel {
	if f.k == 1 {
		return []Kernel{{"lasso off by one at n = a+p", func(syms []int32) int32 {
			if n := len(syms); n <= len(f.orbit) {
				return f.orbit[n]
			}
			return f.lasso(len(syms))
		}}}
	}
	if f.k < 2 {
		return nil
	}
	k := f.k
	swapped := make([]int32, len(f.next)*int(k))
	for s := int32(0); s < int32(f.NumStates()); s++ {
		for a := int32(0); a < k; a++ {
			for b := int32(0); b < k; b++ {
				ba := f.next[f.next[s*k+b]+a] // under b, then a
				swapped[(s*k+a)*k+b] = ba * k
			}
		}
	}
	pairs := f.buildPairs()
	return []Kernel{
		{"Σ² cell composed b∘a", func(syms []int32) int32 { return f.stride(swapped, syms) }},
		{"odd last symbol dropped", func(syms []int32) int32 {
			if len(syms)%2 == 1 {
				syms = syms[:len(syms)-1]
			}
			return f.stride(pairs, syms)
		}},
	}
}

// WalkKernel names the kernel Walk runs for a string of n symbols.
func (f *FlatDFA) WalkKernel(n int) string {
	switch {
	case f.kernel == kernelLasso:
		return "lasso"
	case f.kernel == kernelStride && n >= strideMinLen:
		return "stride"
	}
	return "step"
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
