package specgraph

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
