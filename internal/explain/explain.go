// Package explain produces human-readable justifications for membership
// answers computed from a graph specification.
//
// A membership test P(t, ā) runs the paper's Link rules: starting from the
// root, each symbol of t moves along a successor edge. Whenever the edge
// lands on an earlier representative instead of the literal extension, the
// step is justified by one of the ground equations of R (an Algorithm Q
// merge) applied under the remaining context — so the trace doubles as an
// equational proof that t is congruent to its representative, finished by a
// primary-database lookup.
package explain

import (
	"fmt"
	"strings"

	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Step is one Link move.
type Step struct {
	// Symbol applied at this step.
	Symbol symbols.FuncID
	// From and To are representatives before and after the move.
	From, To term.Term
	// Extension is Symbol applied to From; when it differs from To the
	// move used the equation To ~ Extension.
	Extension term.Term
	// Merged reports whether an equation was applied.
	Merged bool
}

// Explanation is the full trace of a membership test.
type Explanation struct {
	Spec *specgraph.Spec
	// Pred, Term and Args are the queried fact.
	Pred symbols.PredID
	Term term.Term
	Args []symbols.ConstID
	// Steps is the Link walk, innermost symbol first.
	Steps []Step
	// Representative is the walk's endpoint; term.None when it stopped at
	// Outside.
	Representative term.Term
	// Holds is the verdict: the atom is (not) in the representative's
	// slice.
	Holds bool
	// Outside is the first symbol of Term outside the specification's
	// alphabet, where the walk stopped, or symbols.NoFunc. Under range
	// restriction no atom over such a term is in the least fixpoint.
	Outside symbols.FuncID
}

// Membership runs the Link rules on t and records every step, up to a
// symbol outside the alphabet, if t has one.
func Membership(sp *specgraph.Spec, pred symbols.PredID, t term.Term, args []symbols.ConstID) (*Explanation, error) {
	ex := &Explanation{Spec: sp, Pred: pred, Term: t, Args: args, Outside: symbols.NoFunc}
	cur := specgraph.Root
	for _, f := range sp.U.Symbols(t) {
		next, ok := sp.Step(cur, f)
		if !ok {
			ex.Outside, ex.Representative = f, term.None
			return ex, nil
		}
		extension := sp.U.Apply(f, sp.Reps[cur])
		ex.Steps = append(ex.Steps, Step{
			Symbol:    f,
			From:      sp.Reps[cur],
			To:        sp.Reps[next],
			Extension: extension,
			Merged:    sp.Reps[next] != extension,
		})
		cur = next
	}
	ex.Representative = sp.Reps[cur]
	a := sp.W.Atom(pred, sp.W.Tuple(args))
	ex.Holds = sp.W.StateContains(sp.State[cur], a)
	return ex, nil
}

// EquationsUsed returns the distinct ground equations the walk applied, as
// (representative, potential) pairs in first-use order.
func (ex *Explanation) EquationsUsed() [][2]term.Term {
	seen := make(map[[2]term.Term]bool)
	var out [][2]term.Term
	for _, s := range ex.Steps {
		if !s.Merged {
			continue
		}
		pair := [2]term.Term{s.To, s.Extension}
		if !seen[pair] {
			seen[pair] = true
			out = append(out, pair)
		}
	}
	return out
}

// String renders the explanation.
func (ex *Explanation) String() string {
	tab := ex.Spec.Tab
	u := ex.Spec.U
	var b strings.Builder
	atom := func(t term.Term) string {
		var a strings.Builder
		a.WriteString(tab.PredName(ex.Pred))
		a.WriteByte('(')
		a.WriteString(u.CompactString(t, tab))
		for _, c := range ex.Args {
			a.WriteString(", ")
			a.WriteString(tab.ConstName(c))
		}
		a.WriteByte(')')
		return a.String()
	}
	fmt.Fprintf(&b, "%s?\n", atom(ex.Term))
	if len(ex.Steps) == 0 {
		b.WriteString("  the term is the root representative 0\n")
	}
	for i, s := range ex.Steps {
		fmt.Fprintf(&b, "  step %d: succ_%s(%s) = %s",
			i+1, tab.FuncName(s.Symbol), u.CompactString(s.From, tab), u.CompactString(s.To, tab))
		if s.Merged {
			fmt.Fprintf(&b, "   [by %s ~ %s]",
				u.CompactString(s.To, tab), u.CompactString(s.Extension, tab))
		}
		b.WriteByte('\n')
	}
	if ex.Outside != symbols.NoFunc {
		fmt.Fprintf(&b, "  step %d: %s is not in the specification's alphabet\n", len(ex.Steps)+1, tab.FuncName(ex.Outside))
		b.WriteString("  no atom over the term is in the least fixpoint  ⇒  false\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  representative: %s\n", u.CompactString(ex.Representative, tab))
	if ex.Holds {
		fmt.Fprintf(&b, "  %s ∈ B  ⇒  true\n", atom(ex.Representative))
	} else {
		fmt.Fprintf(&b, "  %s ∉ B  ⇒  false\n", atom(ex.Representative))
	}
	return b.String()
}
