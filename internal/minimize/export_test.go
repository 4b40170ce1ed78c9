package minimize

import (
	"fmt"
	"sort"
	"strings"

	"funcdb/internal/facts"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// minimizeReference is Minimize as it was before signatures became integer
// vectors: every Moore round formats a string per representative. It is the
// oracle TestMinimizeMatchesReference compares the partition, the successor
// table and the class numbering against.
func minimizeReference(sp *specgraph.Spec) (*Minimized, error) {
	reps := sp.Reps
	n := len(reps)
	alphabet := sp.Alphabet

	// Initial partition: by observable slice.
	class := make(map[term.Term]int, n)
	var keyOf = func(t term.Term) string {
		slice := sp.Slice(t)
		parts := make([]string, len(slice))
		for i, a := range slice {
			parts[i] = fmt.Sprint(a)
		}
		return strings.Join(parts, ",")
	}
	byKey := make(map[string]int)
	numClasses := 0
	for _, t := range reps {
		k := keyOf(t)
		id, ok := byKey[k]
		if !ok {
			id = numClasses
			numClasses++
			byKey[k] = id
		}
		class[t] = id
	}

	succOf := func(t term.Term, f symbols.FuncID) (term.Term, error) {
		i, err := sp.Index(sp.U, t)
		if err != nil {
			return term.None, err
		}
		next, ok := sp.Step(i, f)
		if !ok {
			return term.None, fmt.Errorf("minimize: missing successor edge")
		}
		return sp.Reps[next], nil
	}

	// Moore refinement: split classes by the vector of successor classes.
	for {
		sigOf := make(map[term.Term]string, n)
		for _, t := range reps {
			var b strings.Builder
			fmt.Fprintf(&b, "%d", class[t])
			for _, f := range alphabet {
				next, err := succOf(t, f)
				if err != nil {
					return nil, err
				}
				fmt.Fprintf(&b, "|%d", class[next])
			}
			sigOf[t] = b.String()
		}
		bySig := make(map[string]int)
		newClass := make(map[term.Term]int, n)
		newCount := 0
		for _, t := range reps {
			s := sigOf[t]
			id, ok := bySig[s]
			if !ok {
				id = newCount
				newCount++
				bySig[s] = id
			}
			newClass[t] = id
		}
		if newCount == numClasses {
			break
		}
		class = newClass
		numClasses = newCount
	}

	// Canonicalize class ids by the precedence-least member, so output is
	// deterministic.
	least := make([]term.Term, numClasses)
	for i := range least {
		least[i] = term.None
	}
	for _, t := range reps {
		c := class[t]
		if least[c] == term.None || sp.U.Compare(t, least[c]) < 0 {
			least[c] = t
		}
	}
	order := make([]int, numClasses)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return sp.U.Compare(least[order[i]], least[order[j]]) < 0
	})
	renumber := make([]int, numClasses)
	for newID, oldID := range order {
		renumber[oldID] = newID
	}

	m := &Minimized{
		Spec:    sp,
		Members: make([][]term.Term, numClasses),
		class:   make([]int32, n),
		succ:    make([][]int, numClasses),
		slices:  make([][]facts.AtomID, numClasses),
	}
	classOf := make(map[term.Term]int, n)
	for i, t := range reps {
		c := renumber[class[t]]
		classOf[t] = c
		m.class[i] = int32(c)
		m.Members[c] = append(m.Members[c], t)
	}
	for c := range m.Members {
		sort.Slice(m.Members[c], func(i, j int) bool {
			return sp.U.Compare(m.Members[c][i], m.Members[c][j]) < 0
		})
		canon := m.Members[c][0]
		m.slices[c] = sp.Slice(canon)
		m.succ[c] = make([]int, len(alphabet))
		for fi, f := range alphabet {
			next, err := succOf(canon, f)
			if err != nil {
				return nil, err
			}
			m.succ[c][fi] = classOf[next]
		}
	}
	return m, nil
}
