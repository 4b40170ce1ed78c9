package facts

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"funcdb/internal/symbols"
)

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// records is what a root world was asked to intern, by identifier.
type records struct {
	tuples [][]symbols.ConstID
	atoms  []atomRec
	states [][]AtomID
}

func (r *records) lens() [3]int { return [3]int{len(r.tuples), len(r.atoms), len(r.states)} }

func lens(w *World) [3]int { return [3]int{w.NumTuples(), w.NumAtoms(), w.NumStates()} }

// intern interns record id of kind k (0 tuple, 1 atom, 2 state) into w.
func (r *records) intern(w *World, k, id int) int {
	switch k {
	case 0:
		return int(w.Tuple(r.tuples[id]))
	case 1:
		return int(w.Atom(r.atoms[id].pred, r.atoms[id].tuple))
	}
	return int(w.State(r.states[id]))
}

// randomRecord interns a random tuple, atom or state into w and records it
// if it was new.
func (r *records) randomRecord(t *testing.T, rng *rand.Rand, w *World) {
	t.Helper()
	before := lens(w)
	var k, got int
	switch k = rng.Intn(3); k {
	case 0:
		args := make([]symbols.ConstID, rng.Intn(4))
		for i := range args {
			args[i] = symbols.ConstID(rng.Intn(6))
		}
		if got = int(w.Tuple(args)); got == before[0] {
			r.tuples = append(r.tuples, args)
		}
	case 1:
		rec := atomRec{symbols.PredID(rng.Intn(4)), TupleID(rng.Intn(before[0] + 1))}
		if got = int(w.Atom(rec.pred, rec.tuple)); got == before[1] {
			r.atoms = append(r.atoms, rec)
		}
	case 2:
		var set []AtomID
		for a := 0; a < before[1] && len(set) < 6; a++ {
			if rng.Intn(before[1]) < 3 {
				set = append(set, AtomID(a))
			}
		}
		if got = int(w.State(set)); got == before[2] {
			r.states = append(r.states, set)
		}
	}
	if got > before[k] || lens(w) != r.lens() {
		t.Fatalf("kind %d: identifier %d with %d interned; lengths %v, recorded %v", k, got, before[k], lens(w), r.lens())
	}
}

// checkView holds a view taken when the root had the lengths n against the
// root's records since: it resolves exactly its prefix and panics on the
// rest; an overlay over it resolves the prefix without growing, numbers
// what is new from the view's lengths on, keeps it from a sibling overlay
// and forgets it on Reset.
func (r *records) checkView(t *testing.T, v *World, n [3]int) {
	t.Helper()
	if lens(v) != n {
		t.Fatalf("view taken at %v has lengths %v", n, lens(v))
	}
	o1, o2 := NewWorldOver(v), NewWorldOver(v)
	for k, total := range r.lens() {
		for id := 0; id < total; id++ {
			if id < n[k] {
				if got := r.intern(v, k, id); got != id {
					t.Fatalf("view at %v: kind %d record %d resolves to %d", n, k, id, got)
				}
				if got := r.intern(o1, k, id); got != id || lens(o1)[k] != n[k] {
					t.Fatalf("overlay at %v: kind %d base record %d resolves to %d, lengths %v", n, k, id, got, lens(o1))
				}
				continue
			}
			if !panics(func() { r.intern(v, k, id) }) || lens(v) != n {
				t.Fatalf("view at %v interned kind %d record %d of the root's future", n, k, id)
			}
			before := lens(o1)[k]
			if got := r.intern(o1, k, id); got != before || lens(o1)[k] != before+1 || r.intern(o1, k, id) != got {
				t.Fatalf("overlay at %v: future kind %d record %d got %d at length %d", n, k, id, got, before)
			}
			if lens(o2)[k] != n[k] {
				t.Fatalf("overlay at %v sees its sibling's records", n)
			}
		}
		if total > n[k] {
			if got := r.intern(o2, k, n[k]); got != n[k] {
				t.Fatalf("second overlay at %v: first kind %d identifier %d", n, k, got)
			}
		}
	}
	for id := n[0]; id < len(r.tuples); id++ {
		if !slices.Equal(o1.TupleArgs(TupleID(id)), r.tuples[id]) {
			t.Fatalf("overlay at %v: tuple %d read back wrong", n, id)
		}
	}
	for id := n[1]; id < len(r.atoms); id++ {
		if o1.AtomPred(AtomID(id)) != r.atoms[id].pred || o1.AtomTuple(AtomID(id)) != r.atoms[id].tuple {
			t.Fatalf("overlay at %v: atom %d read back wrong", n, id)
		}
	}
	for id := n[2]; id < len(r.states); id++ {
		if !slices.Equal(o1.StateAtoms(StateID(id)), r.states[id]) {
			t.Fatalf("overlay at %v: state %d read back wrong", n, id)
		}
	}
	o1.Reset(v)
	if lens(o1) != n {
		t.Fatalf("Reset left overlay at %v with lengths %v", n, lens(o1))
	}
}

// TestStoreInterleavings drives one root world through random interns and
// freezes and checks every view taken on the way (checkView): identifiers are
// dense in insertion order and no view ever sees the root's future.
func TestStoreInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := NewWorld()
	r := &records{states: [][]AtomID{nil}}
	type view struct {
		v *World
		n [3]int
	}
	var views []view
	for step := 0; step < 1500; step++ {
		switch p := rng.Intn(100); {
		case p < 90:
			r.randomRecord(t, rng, w)
		case p < 98:
			views = append(views, view{w.Freeze(), lens(w)})
		default:
			if len(views) > 0 {
				vw := views[rng.Intn(len(views))]
				r.checkView(t, vw.v, vw.n)
			}
		}
	}
	for _, vw := range views {
		r.checkView(t, vw.v, vw.n)
	}
}

// TestFrozenViewPanicsOnNewRecord: a frozen view shares its indexes with the
// writer, so interning through it must fail loudly, not write; so must
// adding to a frozen set.
func TestFrozenViewPanicsOnNewRecord(t *testing.T) {
	w := NewWorld()
	tu := w.Tuple([]symbols.ConstID{1})
	a := w.Atom(0, tu)
	st := w.State([]AtomID{a})
	s := NewSet()
	s.Add(w, a)
	v, fs := w.Freeze(), s.Freeze()
	if v.Tuple([]symbols.ConstID{1}) != tu || v.Atom(0, tu) != a || v.State([]AtomID{a}) != st || v.State(nil) != EmptyState {
		t.Fatal("frozen view lost a record")
	}
	for what, f := range map[string]func(){
		"tuple": func() { v.Tuple([]symbols.ConstID{2}) },
		"atom":  func() { v.Atom(1, tu) },
		"state": func() { v.State([]AtomID{a, a + 1}) },
		"set":   func() { fs.Add(w, w.Atom(1, tu)) },
	} {
		if !panics(f) {
			t.Errorf("frozen view took a new %s", what)
		}
	}
	if fs.Add(w, a) || !fs.Has(w, a) || fs.Len() != 1 {
		t.Error("frozen set lost its member")
	}
	if !panics(func() { NewWorldOver(w) }) {
		t.Error("overlay over a world that may still grow")
	}
}

// withArg returns the positions in list of the atoms whose argument k is c.
func withArg(w *World, list []AtomID, k int, c symbols.ConstID) []int32 {
	var out []int32
	for pos, a := range list {
		if w.TupleArgs(w.AtomTuple(a))[k] == c {
			out = append(out, int32(pos))
		}
	}
	return out
}

// TestFrozenReadersRaceWriter: readers check successive frozen views of a
// world and of a set, bare and through overlays, while the writer interns on
// across several growths of every index, and probes the set by an argument
// past the scan as it grows it (run under -race).
func TestFrozenReadersRaceWriter(t *testing.T) {
	const atoms, readers = 3000, 4 // an index doubles at 4, 8, … 2048 entries
	w, s := NewWorld(), NewSet()
	type view struct {
		w *World
		s *Set
	}
	views := make(chan view, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range views {
				o := NewWorldOver(v.w)
				for _, x := range []*World{v.w, o} {
					for id := 0; id < v.w.NumAtoms(); id++ {
						a := AtomID(id)
						tu := x.AtomTuple(a)
						if x.Tuple(x.TupleArgs(tu)) != tu || x.Atom(x.AtomPred(a), tu) != a {
							t.Errorf("view of %d atoms: atom %d does not resolve to itself", v.w.NumAtoms(), id)
							return
						}
						// The writer adds every other atom to the set, as it interns it.
						if v.s.Has(x, a) != (id%2 == 0) {
							t.Errorf("view of %d atoms: set membership of atom %d wrong", v.w.NumAtoms(), id)
							return
						}
					}
					// A view is never probed through: it scans.
					if _, ok := v.s.Probe(x, 0, 1, 0, 0, len(v.s.ByPred(0))); ok {
						t.Errorf("view of %d atoms probed through an argument index", v.w.NumAtoms())
						return
					}
					for id := 0; id < v.w.NumStates(); id++ {
						if x.State(x.StateAtoms(StateID(id))) != StateID(id) {
							t.Errorf("view of %d states: state %d does not resolve to itself", v.w.NumStates(), id)
							return
						}
					}
				}
				// Predicate 9 is one the writer never uses: new to every view.
				if a := o.Atom(9, 0); int(a) != v.w.NumAtoms() || v.s.Has(o, a) {
					t.Errorf("overlay over %d atoms: new atom at %d", v.w.NumAtoms(), a)
					return
				}
			}
		}()
	}
	for i := 0; w.NumAtoms() < atoms; i++ {
		a := w.Atom(symbols.PredID(i%3), w.Tuple([]symbols.ConstID{symbols.ConstID(i), symbols.ConstID(i % 7)}))
		if int(a)%2 == 0 {
			s.Add(w, a)
			p, c := w.AtomPred(a), symbols.ConstID(i%7)
			list := s.ByPred(p)
			hits, ok := s.Probe(w, p, 1, c, 0, len(list))
			if ok != (len(list) > ScanMax) {
				t.Fatalf("a list of %d atoms probed: %v", len(list), ok)
			}
			if want := withArg(w, list, 1, c); ok && !slices.Equal(hits, want) {
				t.Fatalf("the bucket of %d holds %v, want %v", c, hits, want)
			}
		}
		w.State([]AtomID{a / 2, a})
		if i%97 == 0 {
			views <- view{w.Freeze(), s.Freeze()}
		}
	}
	close(views)
	wg.Wait()
}
