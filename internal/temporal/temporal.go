// Package temporal specializes relational specifications to temporal
// deductive databases [CI88]: programs whose only function symbol is the
// successor +1.
//
// For temporal programs the quotient automaton degenerates into a lasso: a
// prefix of distinct days followed by a cycle. The specification is then a
// pair (prefix, period) plus one slice per representative day, membership is
// O(1) modular arithmetic instead of a DFA walk, and the equational
// specification is the single equation (prefix, prefix+period) — the "just
// one pair capturing the periodicity" of section 4.
package temporal

import (
	"fmt"
	"strings"

	"funcdb/internal/congruence"
	"funcdb/internal/facts"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Spec is a lasso specification of a temporal least fixpoint.
type Spec struct {
	// Prefix is the number of non-repeating initial days; days
	// Prefix, Prefix+1, ..., Prefix+Period-1 repeat forever.
	Prefix int
	// Period is the cycle length (>= 1).
	Period int

	// Graph is the specification the lasso was read off. With a single
	// successor symbol its representatives are the days 0, 1, ...,
	// Prefix+Period-1 in order: Graph.Reps[i] is day i.
	Graph *specgraph.Spec
	succ  symbols.FuncID
}

// Build derives the lasso form from a graph specification of a temporal
// program.
func Build(sp *specgraph.Spec) (*Spec, error) {
	if !sp.Eng.Prep.Temporal {
		return nil, fmt.Errorf("temporal: program is not temporal")
	}
	if len(sp.Alphabet) != 1 {
		return nil, fmt.Errorf("temporal: expected a single successor symbol, got %d", len(sp.Alphabet))
	}
	if len(sp.Merges) != 1 {
		return nil, fmt.Errorf("temporal: expected exactly one merge, got %d", len(sp.Merges))
	}
	succ := sp.Alphabet[0]
	m := sp.Merges[0]
	rep, okR := sp.U.AsNumber(m.Rep, succ)
	pot, okP := sp.U.AsNumber(m.Potential, succ)
	if !okR || !okP || pot <= rep {
		return nil, fmt.Errorf("temporal: malformed merge")
	}
	t := &Spec{
		Prefix: rep,
		Period: pot - rep,
		Graph:  sp,
		succ:   succ,
	}
	if len(sp.Reps) != t.Prefix+t.Period {
		return nil, fmt.Errorf("temporal: %d representatives but prefix+period = %d",
			len(sp.Reps), t.Prefix+t.Period)
	}
	return t, nil
}

// RepDay maps a day to its representative day by lasso arithmetic.
func (t *Spec) RepDay(n int) int {
	if n < t.Prefix+t.Period {
		return n
	}
	return t.Prefix + (n-t.Prefix)%t.Period
}

// Has decides pred(n, args) in O(1) arithmetic plus a state lookup.
func (t *Spec) Has(pred symbols.PredID, n int, args []symbols.ConstID) bool {
	a := t.Graph.W.Atom(pred, t.Graph.W.Tuple(args))
	return t.Graph.W.StateContains(t.Graph.State[t.RepDay(n)], a)
}

// Equation returns the single pair of the equational specification.
func (t *Spec) Equation() [2]term.Term {
	return [2]term.Term{
		t.Graph.U.Number(t.Prefix, t.succ),
		t.Graph.U.Number(t.Prefix+t.Period, t.succ),
	}
}

// EqSpec builds the one-equation specification.
func (t *Spec) EqSpec() *congruence.EqSpec {
	return congruence.NewEqSpec(t.Graph.U, [][2]term.Term{t.Equation()})
}

// Slice returns the primary-database slice of day n's representative.
func (t *Spec) Slice(n int) []facts.AtomID {
	return t.Graph.SliceAt(t.RepDay(n))
}

// Dump renders the lasso.
func (t *Spec) Dump() string {
	tab := t.Graph.Eng.Prep.Program.Tab
	var b strings.Builder
	fmt.Fprintf(&b, "temporal specification: prefix %d, period %d\n", t.Prefix, t.Period)
	for i, d := range t.Graph.Reps {
		fmt.Fprintf(&b, "  L[%d] = {", i)
		for j, a := range t.Graph.SliceAt(i) {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(t.Graph.FormatAtom(a, d))
		}
		b.WriteString("}\n")
	}
	eq := t.Equation()
	fmt.Fprintf(&b, "R = {(%s, %s)}\n",
		t.Graph.U.String(eq[0], tab), t.Graph.U.String(eq[1], tab))
	return b.String()
}
