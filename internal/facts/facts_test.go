package facts

import (
	"slices"
	"testing"
	"testing/quick"

	"funcdb/internal/symbols"
)

func TestTupleInterning(t *testing.T) {
	w := NewWorld()
	a := w.Tuple([]symbols.ConstID{1, 2})
	b := w.Tuple([]symbols.ConstID{1, 2})
	if a != b {
		t.Fatalf("equal tuples interned apart")
	}
	c := w.Tuple([]symbols.ConstID{2, 1})
	if c == a {
		t.Fatalf("distinct tuples share an id")
	}
	if w.Tuple(nil) != w.Tuple([]symbols.ConstID{}) {
		t.Fatalf("empty tuple unstable")
	}
	args := w.TupleArgs(a)
	if len(args) != 2 || args[0] != 1 || args[1] != 2 {
		t.Fatalf("TupleArgs = %v", args)
	}
}

func TestTupleCopiesInput(t *testing.T) {
	w := NewWorld()
	in := []symbols.ConstID{7}
	tu := w.Tuple(in)
	in[0] = 9
	if w.TupleArgs(tu)[0] != 7 {
		t.Fatalf("Tuple aliases caller storage")
	}
}

func TestAtomInterning(t *testing.T) {
	w := NewWorld()
	tu := w.Tuple([]symbols.ConstID{3})
	a := w.Atom(1, tu)
	if w.Atom(1, tu) != a {
		t.Fatalf("equal atoms interned apart")
	}
	if w.Atom(2, tu) == a {
		t.Fatalf("distinct predicates share an atom")
	}
	if w.AtomPred(a) != 1 || w.AtomTuple(a) != tu {
		t.Fatalf("atom accessors broken")
	}
	if w.NumAtoms() != 2 {
		t.Fatalf("NumAtoms = %d", w.NumAtoms())
	}
}

func TestStateInterning(t *testing.T) {
	w := NewWorld()
	tu := w.Tuple(nil)
	a1 := w.Atom(1, tu)
	a2 := w.Atom(2, tu)
	s1 := w.State([]AtomID{a1, a2})
	s2 := w.State([]AtomID{a1, a2})
	if s1 != s2 {
		t.Fatalf("equal states interned apart")
	}
	if w.State([]AtomID{a1}) == s1 {
		t.Fatalf("distinct states share an id")
	}
	if w.State(nil) != EmptyState {
		t.Fatalf("empty state is not EmptyState")
	}
	if !w.StateContains(s1, a2) || w.StateContains(EmptyState, a1) {
		t.Fatalf("StateContains broken")
	}
	if w.StateLen(s1) != 2 {
		t.Fatalf("StateLen = %d", w.StateLen(s1))
	}
}

func TestSetBasics(t *testing.T) {
	w := NewWorld()
	s := NewSet()
	if s.StateID(w) != EmptyState {
		t.Fatalf("fresh set is not the empty state")
	}
	tu := w.Tuple(nil)
	a1 := w.Atom(1, tu)
	a2 := w.Atom(2, tu)
	if !s.Add(w, a1) || s.Add(w, a1) {
		t.Fatalf("Add newness reporting broken")
	}
	s.Add(w, a2)
	if s.Len() != 2 || !s.Has(w, a1) || s.Has(w, w.Atom(3, tu)) {
		t.Fatalf("set contents wrong")
	}
	if got := s.ByPred(1); len(got) != 1 || got[0] != a1 {
		t.Fatalf("ByPred = %v", got)
	}
	id1 := s.StateID(w)
	if id1 != w.State([]AtomID{a1, a2}) {
		t.Fatalf("StateID does not match interned state")
	}
	// Cache must invalidate on growth.
	a3 := w.Atom(3, tu)
	s.Add(w, a3)
	if s.StateID(w) == id1 {
		t.Fatalf("StateID cache stale after Add")
	}
}

func TestAddState(t *testing.T) {
	w := NewWorld()
	tu := w.Tuple(nil)
	a1 := w.Atom(1, tu)
	a2 := w.Atom(2, tu)
	st := w.State([]AtomID{a1, a2})
	s := NewSet()
	if !s.AddState(w, st) {
		t.Fatalf("AddState reported no change")
	}
	if s.AddState(w, st) {
		t.Fatalf("second AddState reported change")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestStateIdentityIsSetIdentity: interning respects set semantics
// regardless of insertion order.
func TestStateIdentityIsSetIdentity(t *testing.T) {
	w := NewWorld()
	tu := w.Tuple(nil)
	var atoms []AtomID
	for p := symbols.PredID(0); p < 12; p++ {
		atoms = append(atoms, w.Atom(p, tu))
	}
	f := func(perm1, perm2 []uint8) bool {
		s1 := NewSet()
		s2 := NewSet()
		m1 := make(map[AtomID]bool)
		m2 := make(map[AtomID]bool)
		for _, i := range perm1 {
			a := atoms[int(i)%len(atoms)]
			s1.Add(w, a)
			m1[a] = true
		}
		for _, i := range perm2 {
			a := atoms[int(i)%len(atoms)]
			s2.Add(w, a)
			m2[a] = true
		}
		same := len(m1) == len(m2)
		if same {
			for a := range m1 {
				if !m2[a] {
					same = false
					break
				}
			}
		}
		return (s1.StateID(w) == s2.StateID(w)) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSetPastTheScan: membership is a scan of one predicate's list up to
// ScanMax atoms and an index beyond; a set behaves the same on both sides of
// the switch, a duplicate is refused on both, every per-predicate list stays
// in insertion order, and a frozen copy keeps the lengths it was taken at
// while the set grows on. Tuples longer than the stack key buffer intern like
// any other.
func TestSetPastTheScan(t *testing.T) {
	w := NewWorld()
	s := NewSet()
	var all []AtomID
	var frozen *Set
	for i := 0; i < 4*ScanMax; i++ {
		p := symbols.PredID(i % 3)
		a := w.Atom(p, w.Tuple([]symbols.ConstID{symbols.ConstID(i)}))
		if s.Has(w, a) {
			t.Fatalf("atom %d present before it was added", i)
		}
		if !s.Add(w, a) || s.Add(w, a) {
			t.Fatalf("Add(%d) newness reporting broken at %d atoms", i, s.Len())
		}
		all = append(all, a)
		if i == ScanMax+3 {
			frozen = s.Freeze()
		}
	}
	if s.Len() != len(all) || len(s.All()) != len(all) {
		t.Fatalf("Len = %d, All = %d, want %d", s.Len(), len(s.All()), len(all))
	}
	for i, a := range all {
		if !s.Has(w, a) {
			t.Fatalf("atom %d lost", i)
		}
		if got := s.ByPred(symbols.PredID(i % 3))[i/3]; got != a {
			t.Fatalf("ByPred(%d)[%d] = %v, want %v: not insertion order", i%3, i/3, got, a)
		}
		if frozen.Has(w, a) != (i <= ScanMax+3) {
			t.Fatalf("frozen copy taken after atom %d: Has(atom %d) = %v", ScanMax+3, i, frozen.Has(w, a))
		}
	}
	if s.ByPred(7) != nil || frozen.ByPred(7) != nil || frozen.Len() != ScanMax+4 {
		t.Fatalf("unused predicate or frozen length wrong")
	}
	long := make([]symbols.ConstID, 40)
	for i := range long {
		long[i] = symbols.ConstID(i)
	}
	tu := w.Tuple(long)
	long[39] = 99
	if w.Tuple(long) == tu || len(w.TupleArgs(tu)) != 40 || w.TupleArgs(tu)[39] != 39 {
		t.Fatalf("long tuples interned wrongly")
	}
	long[39] = 39
	if w.Tuple(long) != tu {
		t.Fatalf("equal long tuples interned apart")
	}
}

// TestSetProbe: a probe of a window longer than ScanMax returns the positions
// in it of the atoms holding the constant at the argument, ascending — those
// added after the index was built too — and a short window, or a frozen view,
// is left to a scan.
func TestSetProbe(t *testing.T) {
	w := NewWorld()
	s := NewSet()
	add := func(i int) {
		s.Add(w, w.Atom(0, w.Tuple([]symbols.ConstID{symbols.ConstID(i % 5), symbols.ConstID(i)})))
	}
	for i := 0; i < 3*ScanMax; i++ {
		add(i)
	}
	if _, ok := s.Probe(w, 0, 0, 2, 5, 5+ScanMax); ok {
		t.Fatalf("a window of %d atoms was probed", ScanMax)
	}
	check := func(lo, hi int) {
		t.Helper()
		list := s.ByPred(0)
		var want []int32
		for pos := lo; pos < hi; pos++ {
			if w.TupleArgs(w.AtomTuple(list[pos]))[0] == 2 {
				want = append(want, int32(pos))
			}
		}
		got, ok := s.Probe(w, 0, 0, 2, lo, hi)
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("Probe of [%d, %d) = %v, %v; want %v", lo, hi, got, ok, want)
		}
	}
	check(0, 3*ScanMax)
	check(3, 3*ScanMax-4)
	for i := 3 * ScanMax; i < 5*ScanMax; i++ {
		add(i)
	}
	check(0, 5*ScanMax)
	check(3*ScanMax-7, 5*ScanMax-2)
	if hits, ok := s.Probe(w, 0, 0, 9, 0, 5*ScanMax); !ok || len(hits) != 0 {
		t.Fatalf("a constant at no atom's argument: %v, %v", hits, ok)
	}
	if _, ok := s.Freeze().Probe(w, 0, 0, 2, 0, 5*ScanMax); ok {
		t.Fatal("a frozen view was probed")
	}
}
