package minimize

import (
	"fmt"
	"sort"
	"strings"

	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Equivalent decides whether two minimized specifications represent the
// same least fixpoint over the observable (original) predicates: every
// membership query P(t, ā) receives the same answer from both. The two
// specifications may come from entirely different programs — different
// helper predicates, different rules — as long as the observable predicate
// and function-symbol names line up; comparison is by name, not by interned
// identity.
//
// The check is a product walk of the two automata from their roots: paired
// classes must have name-identical observable slices and name-paired
// successors. A mismatch is reported as a counterexample term (in m's
// universe) at which the two fixpoints differ, or whose successor alphabet
// differs.
func Equivalent(m, other *Minimized) (bool, term.Term, error) {
	aAlpha, err := alphabetByName(m)
	if err != nil {
		return false, term.None, err
	}
	bAlpha, err := alphabetByName(other)
	if err != nil {
		return false, term.None, err
	}
	var names []string
	for name := range aAlpha {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(aAlpha) != len(bAlpha) {
		return false, term.Zero, nil
	}
	for name := range aAlpha {
		if _, ok := bAlpha[name]; !ok {
			return false, term.Zero, nil
		}
	}

	type pairKey struct{ a, b int }
	type item struct {
		a, b int
		at   term.Term // witness term in m's universe
	}
	seen := map[pairKey]bool{}
	queue := []item{{0, 0, term.Zero}} // the roots' classes
	seen[pairKey{0, 0}] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if sliceKey(m, cur.a) != sliceKey(other, cur.b) {
			return false, cur.at, nil
		}
		for _, name := range names {
			fa := aAlpha[name]
			fb := bAlpha[name]
			na := m.succ[cur.a][fa.index]
			nb := other.succ[cur.b][fb.index]
			key := pairKey{na, nb}
			if !seen[key] {
				seen[key] = true
				queue = append(queue, item{na, nb, m.Spec.U.Apply(fa.id, cur.at)})
			}
		}
	}
	return true, term.None, nil
}

type alphaEntry struct {
	id    symbols.FuncID
	index int
}

func alphabetByName(m *Minimized) (map[string]alphaEntry, error) {
	tab := m.Spec.Tab
	out := make(map[string]alphaEntry, len(m.Spec.Alphabet))
	for i, f := range m.Spec.Alphabet {
		name := tab.FuncName(f)
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("minimize: duplicate symbol name %q", name)
		}
		out[name] = alphaEntry{id: f, index: i}
	}
	return out, nil
}

// sliceKey renders a class's observable slice as a canonical string of
// predicate and constant names.
func sliceKey(m *Minimized, class int) string {
	tab := m.Spec.Tab
	w := m.Spec.W
	var parts []string
	for _, a := range m.slices[class] {
		var b strings.Builder
		b.WriteString(tab.PredName(w.AtomPred(a)))
		for _, c := range w.TupleArgs(w.AtomTuple(a)) {
			b.WriteByte('|')
			b.WriteString(tab.ConstName(c))
		}
		parts = append(parts, b.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}
