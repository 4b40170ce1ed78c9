// Package canonical implements the canonical form of section 3.6: every set
// of functional rules Z applied to a database D is equivalent to the fixed
// rule set CONGR applied to the computed database C = B ∪ R, where B is the
// primary database and R the ground equations of the equational
// specification.
//
// CONGR consists of the closure rules for the congruence ≅ (reflexivity,
// symmetry, transitivity and one congruence rule per function symbol) plus
// one transfer rule P(S, x̄), S ≅ T -> P(T, x̄) per functional predicate.
// These rules are not functional — the equality predicate has two
// functional components — so they are materialized here as text, and the
// Evaluator answers queries from (B, R) alone using the congruence-closure
// procedure, never consulting the original rules. That the same CONGR works
// for every Z is what makes the representation canonical.
package canonical

import (
	"fmt"
	"strings"

	"funcdb/internal/congruence"
	"funcdb/internal/facts"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Form is the canonical form (C, CONGR) of a functional deductive database.
type Form struct {
	Spec *specgraph.Spec
	// Pairs is the relation R.
	Pairs [][2]term.Term
	es    *congruence.EqSpec
	// candidates[atom] lists the representative terms whose slice contains
	// the function-free atom; the paper's set T for a membership test.
	candidates map[facts.AtomID][]term.Term
}

// Build derives the canonical form from a graph specification: R is read
// off the algorithm's merges, B off the representative slices.
func Build(sp *specgraph.Spec) *Form {
	pairs := make([][2]term.Term, 0, len(sp.Merges))
	for _, m := range sp.Merges {
		pairs = append(pairs, [2]term.Term{m.Rep, m.Potential})
	}
	f := &Form{
		Spec:       sp,
		Pairs:      pairs,
		es:         congruence.NewEqSpec(sp.U, pairs),
		candidates: make(map[facts.AtomID][]term.Term),
	}
	for i, rep := range sp.Reps {
		for _, a := range sp.SliceAt(i) {
			f.candidates[a] = append(f.candidates[a], rep)
		}
	}
	return f
}

// Has decides P(t, args) ∈ L from (B, R) alone: compute T = {t' : P(t',
// args) ∈ B} and test whether (t, t') ∈ Cl(R) for some t' in T.
func (f *Form) Has(pred symbols.PredID, t term.Term, args []symbols.ConstID) bool {
	a := f.Spec.W.Atom(pred, f.Spec.W.Tuple(args))
	return f.es.CongruentToAny(t, f.candidates[a])
}

// HasData decides a non-functional fact from C.
func (f *Form) HasData(pred symbols.PredID, args []symbols.ConstID) bool {
	return f.Spec.HasData(pred, args)
}

// EqSpec exposes the underlying equational specification.
func (f *Form) EqSpec() *congruence.EqSpec { return f.es }

// CongrRules renders the CONGR rule set. It depends only on the predicates
// and function symbols of Z, never on the actual rules — the canonical-form
// property. The equality predicate is written Cong/2 with two functional
// components.
func (f *Form) CongrRules() string {
	tab := f.Spec.Tab
	var b strings.Builder
	b.WriteString("% CONGR: closure of the congruence relation\n")
	b.WriteString("R(S, T) -> Cong(S, T).\n")
	b.WriteString("Cong(S, S).\n")
	b.WriteString("Cong(S, T) -> Cong(T, S).\n")
	b.WriteString("Cong(S, T), Cong(T, U) -> Cong(S, U).\n")
	for _, fn := range f.Spec.Alphabet {
		name := tab.FuncName(fn)
		fmt.Fprintf(&b, "Cong(S, T) -> Cong(%s(S), %s(T)).\n", name, name)
	}
	b.WriteString("% CONGR: transfer rules, one per functional predicate\n")
	for p := symbols.PredID(0); int(p) < tab.NumPreds(); p++ {
		info := tab.PredInfo(p)
		if !info.Functional || !f.Spec.OriginalPreds[p] {
			continue
		}
		vars := make([]string, info.Arity)
		for i := range vars {
			vars[i] = fmt.Sprintf("X%d", i+1)
		}
		args := ""
		if len(vars) > 0 {
			args = ", " + strings.Join(vars, ", ")
		}
		fmt.Fprintf(&b, "%s(S%s), Cong(S, T) -> %s(T%s).\n", info.Name, args, info.Name, args)
	}
	return b.String()
}

// DatabaseC renders the canonical database C = B ∪ R.
func (f *Form) DatabaseC() string {
	tab := f.Spec.Tab
	var b strings.Builder
	b.WriteString("% B: the primary database\n")
	for i, rep := range f.Spec.Reps {
		for _, a := range f.Spec.SliceAt(i) {
			b.WriteString(f.Spec.FormatAtom(a, rep))
			b.WriteString(".\n")
		}
	}
	for _, a := range f.Spec.Global.All() {
		p := f.Spec.W.AtomPred(a)
		if !f.Spec.OriginalPreds[p] {
			continue
		}
		b.WriteString(tab.PredName(p))
		b.WriteByte('(')
		for i, c := range f.Spec.W.TupleArgs(f.Spec.W.AtomTuple(a)) {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(tab.ConstName(c))
		}
		b.WriteString(").\n")
	}
	b.WriteString("% R: the ground equations\n")
	for _, p := range f.Pairs {
		fmt.Fprintf(&b, "R(%s, %s).\n",
			f.Spec.U.CompactString(p[0], tab), f.Spec.U.CompactString(p[1], tab))
	}
	return b.String()
}
