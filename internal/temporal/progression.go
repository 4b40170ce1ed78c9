package temporal

import (
	"fmt"
	"sort"
	"strings"

	"funcdb/internal/symbols"
)

// Progression is a set of days in closed form: Start, Start+Stride,
// Start+2*Stride, ... . Stride 0 denotes the singleton {Start}.
type Progression struct {
	Start  int
	Stride int
}

// Contains reports whether day n belongs to the progression.
func (p Progression) Contains(n int) bool {
	if p.Stride == 0 {
		return n == p.Start
	}
	return n >= p.Start && (n-p.Start)%p.Stride == 0
}

// String renders the progression in the paper's informal style: "4" or
// "1 + 3k".
func (p Progression) String() string {
	if p.Stride == 0 {
		return fmt.Sprintf("%d", p.Start)
	}
	return fmt.Sprintf("%d + %dk", p.Start, p.Stride)
}

// Progressions returns the answer to "on which days does pred(args) hold?"
// as a minimal list of arithmetic progressions: one singleton per holding
// day in the prefix, and one progression with the lasso's period per
// holding representative day in the cycle. This is the closed form behind
// the paper's introductory "every second day".
func (t *Spec) Progressions(pred symbols.PredID, args []symbols.ConstID) []Progression {
	a := t.Graph.W.Atom(pred, t.Graph.W.Tuple(args))
	var out []Progression
	for day := 0; day < t.Prefix; day++ {
		if t.Graph.W.StateContains(t.Graph.State[day], a) {
			out = append(out, Progression{Start: day, Stride: 0})
		}
	}
	for day := t.Prefix; day < t.Prefix+t.Period; day++ {
		if t.Graph.W.StateContains(t.Graph.State[day], a) {
			out = append(out, Progression{Start: day, Stride: t.Period})
		}
	}
	return simplify(out)
}

// simplify merges progression lists into coarser ones where possible: if
// every residue class of the period is present, the whole tail collapses to
// stride 1; more generally, equal-spaced subsets of residues collapse to a
// smaller stride. Singletons are kept as-is.
func simplify(ps []Progression) []Progression {
	var singles, cyclic []Progression
	for _, p := range ps {
		if p.Stride == 0 {
			singles = append(singles, p)
		} else {
			cyclic = append(cyclic, p)
		}
	}
	if len(cyclic) < 2 {
		return ps
	}
	period := cyclic[0].Stride
	sort.Slice(cyclic, func(i, j int) bool { return cyclic[i].Start < cyclic[j].Start })
	// Try every divisor d of period with period/d == len(cyclic): the
	// starts must then be exactly s, s+d, s+2d, ...
	n := len(cyclic)
	if period%n == 0 {
		d := period / n
		ok := true
		for i := 1; i < n; i++ {
			if cyclic[i].Start != cyclic[0].Start+i*d {
				ok = false
				break
			}
		}
		if ok {
			return absorbSingles(singles, Progression{Start: cyclic[0].Start, Stride: d})
		}
	}
	return ps
}

// absorbSingles extends a progression backwards over singletons that
// immediately precede it: {0, 1 + 1k} becomes {0 + 1k}.
func absorbSingles(singles []Progression, p Progression) []Progression {
	remaining := append([]Progression(nil), singles...)
	for {
		extended := false
		for i, s := range remaining {
			if s.Start == p.Start-p.Stride {
				p.Start = s.Start
				remaining = append(remaining[:i], remaining[i+1:]...)
				extended = true
				break
			}
		}
		if !extended {
			return append(remaining, p)
		}
	}
}

// FormatProgressions renders a progression list: "{1 + 3k}" or
// "{0, 4 + 6k, 5 + 6k}"; the empty list renders as "{}" (never holds).
func FormatProgressions(ps []Progression) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
