// Package facts interns the ground data of evaluation: argument tuples,
// function-free atoms (a predicate applied to a tuple, with the functional
// component held elsewhere), and states.
//
// A state, in the sense of section 3.1 of the paper, is the set of
// function-free atoms true at one ground functional term — the slice L[t]
// with its functional component stripped. States are interned so that the
// state-equivalence relation ~ is an integer comparison, which is what makes
// Algorithm Q's merging cheap.
package facts

import (
	"slices"
	"sort"

	"funcdb/internal/intern"
	"funcdb/internal/symbols"
)

// TupleID identifies an interned argument tuple.
type TupleID int32

// AtomID identifies an interned function-free atom (predicate + tuple).
type AtomID int32

// StateID identifies an interned state (sorted set of AtomIDs).
type StateID int32

// EmptyState is the StateID of the empty state in every World.
const EmptyState StateID = 0

type atomRec struct {
	pred  symbols.PredID
	tuple TupleID
}

// World interns tuples, atoms and states; it is the package's one store, in
// the three roles of term.Universe: a root (NewWorld) one goroutine at a time
// grows, read-only views of it cut at a length (Freeze) for any number of
// readers, and single-goroutine overlays over such a view (NewWorldOver) for
// what one query interns. The zero value is not usable.
type World struct {
	base *World // the frozen view under an overlay, nil otherwise
	// loTuple, loAtom and loState are the base's lengths: the identifiers
	// of tupleData[0], atoms[0] and stateData[0].
	loTuple, loAtom, loState int

	tupleData [][]symbols.ConstID
	tupleBy   intern.Index

	atoms  []atomRec
	atomBy intern.Index

	stateData [][]AtomID
	stateBy   intern.Index

	frozen bool
}

// NewWorld returns an empty interning context. The empty state is
// pre-interned as EmptyState.
func NewWorld() *World {
	w := &World{}
	w.State(nil)
	return w
}

// NewWorldOver returns an empty overlay over base, a frozen view of a root
// world. Lookups find base's records first; novel ones get identifiers from
// base's lengths on and go with the overlay. Overlays over one base never
// see each other.
func NewWorldOver(base *World) *World {
	w := &World{}
	w.Reset(base)
	return w
}

// Reset re-points an overlay at base and drops every record of its own,
// keeping allocated capacity so pooled overlays are reused without
// allocating.
func (w *World) Reset(base *World) {
	if !base.frozen || base.base != nil {
		panic("facts: an overlay needs a frozen view of a root world under it")
	}
	w.base = base
	w.loTuple, w.loAtom, w.loState = base.NumTuples(), base.NumAtoms(), base.NumStates()
	w.tupleData, w.atoms, w.stateData = w.tupleData[:0], w.atoms[:0], w.stateData[:0]
	w.tupleBy.Reset()
	w.atomBy.Reset()
	w.stateBy.Reset()
}

// Freeze returns a read-only view of w as it is now: the same record arrays
// cut at their lengths, and the same indexes, which the view reads up to
// those lengths (see package intern). It copies nothing, so w may keep
// growing — appends land past what the view reads. Interning a new record
// through the view panics; make an overlay with NewWorldOver for that.
func (w *World) Freeze() *World {
	v := *w
	v.tupleData = w.tupleData[:len(w.tupleData):len(w.tupleData)]
	v.atoms = w.atoms[:len(w.atoms):len(w.atoms)]
	v.stateData = w.stateData[:len(w.stateData):len(w.stateData)]
	v.frozen = true
	return &v
}

// checkLive panics when w is a frozen view: what a lookup missed may not be
// added to it.
func (w *World) checkLive(what string) {
	if w.frozen {
		panic("facts: new " + what + " interned through a frozen World")
	}
}

// findTuple looks args up among the base's tuples, then w's own.
func (w *World) findTuple(h uint32, args []symbols.ConstID) int32 {
	if w.base != nil {
		if id := w.base.findTuple(h, args); id >= 0 {
			return id
		}
	}
	return w.tupleBy.Find(h, int32(w.NumTuples()), func(id int32) bool {
		return slices.Equal(w.tupleData[int(id)-w.loTuple], args)
	})
}

// Tuple interns an argument tuple. The argument slice is copied.
func (w *World) Tuple(args []symbols.ConstID) TupleID {
	h := intern.HashIDs(args)
	if id := w.findTuple(h, args); id >= 0 {
		return TupleID(id)
	}
	w.checkLive("tuple")
	id := TupleID(w.NumTuples())
	w.tupleData = append(w.tupleData, append([]symbols.ConstID(nil), args...))
	w.tupleBy.Insert(h, int32(id))
	return id
}

// TupleArgs returns the constants of tu. The caller must not modify it.
func (w *World) TupleArgs(tu TupleID) []symbols.ConstID {
	if int(tu) < w.loTuple {
		return w.base.tupleData[tu]
	}
	return w.tupleData[int(tu)-w.loTuple]
}

// NumTuples returns the number of interned tuples.
func (w *World) NumTuples() int { return w.loTuple + len(w.tupleData) }

func (w *World) atom(a AtomID) atomRec {
	if int(a) < w.loAtom {
		return w.base.atoms[a]
	}
	return w.atoms[int(a)-w.loAtom]
}

// findAtom looks rec up among the base's atoms, then w's own.
func (w *World) findAtom(h uint32, rec atomRec) int32 {
	if w.base != nil {
		if id := w.base.findAtom(h, rec); id >= 0 {
			return id
		}
	}
	return w.atomBy.Find(h, int32(w.NumAtoms()), func(id int32) bool {
		return w.atoms[int(id)-w.loAtom] == rec
	})
}

func atomHash(rec atomRec) uint32 {
	return intern.Hash(uint64(uint32(rec.pred))<<32 | uint64(uint32(rec.tuple)))
}

// Lookup returns the atom pred(args) if w has interned it. It interns
// nothing, so a frozen view answers it too.
func (w *World) Lookup(pred symbols.PredID, args []symbols.ConstID) (AtomID, bool) {
	tu := w.findTuple(intern.HashIDs(args), args)
	if tu < 0 {
		return -1, false
	}
	rec := atomRec{pred, TupleID(tu)}
	id := w.findAtom(atomHash(rec), rec)
	return AtomID(id), id >= 0
}

// Atom interns the function-free atom pred(tuple).
func (w *World) Atom(pred symbols.PredID, tuple TupleID) AtomID {
	rec := atomRec{pred, tuple}
	h := atomHash(rec)
	if id := w.findAtom(h, rec); id >= 0 {
		return AtomID(id)
	}
	w.checkLive("atom")
	id := AtomID(w.NumAtoms())
	w.atoms = append(w.atoms, rec)
	w.atomBy.Insert(h, int32(id))
	return id
}

// AtomPred returns the predicate of a.
func (w *World) AtomPred(a AtomID) symbols.PredID { return w.atom(a).pred }

// AtomTuple returns the tuple of a.
func (w *World) AtomTuple(a AtomID) TupleID { return w.atom(a).tuple }

// NumAtoms returns the number of interned atoms.
func (w *World) NumAtoms() int { return w.loAtom + len(w.atoms) }

// findState looks sorted up among the base's states, then w's own.
func (w *World) findState(h uint32, sorted []AtomID) int32 {
	if w.base != nil {
		if id := w.base.findState(h, sorted); id >= 0 {
			return id
		}
	}
	return w.stateBy.Find(h, int32(w.NumStates()), func(id int32) bool {
		return slices.Equal(w.stateData[int(id)-w.loState], sorted)
	})
}

// State interns a set of atoms given as a sorted slice, which is copied.
func (w *World) State(sorted []AtomID) StateID {
	h := intern.HashIDs(sorted)
	if id := w.findState(h, sorted); id >= 0 {
		return StateID(id)
	}
	w.checkLive("state")
	id := StateID(w.NumStates())
	w.stateData = append(w.stateData, append([]AtomID(nil), sorted...))
	w.stateBy.Insert(h, int32(id))
	return id
}

// StateAtoms returns the sorted atoms of s. The caller must not modify it.
func (w *World) StateAtoms(s StateID) []AtomID {
	if int(s) < w.loState {
		return w.base.stateData[s]
	}
	return w.stateData[int(s)-w.loState]
}

// StateLen returns the number of atoms in s.
func (w *World) StateLen(s StateID) int { return len(w.StateAtoms(s)) }

// NumStates returns the number of interned states.
func (w *World) NumStates() int { return w.loState + len(w.stateData) }

// StateContains reports whether atom a belongs to state s.
func (w *World) StateContains(s StateID, a AtomID) bool {
	d := w.StateAtoms(s)
	i := sort.Search(len(d), func(i int) bool { return d[i] >= a })
	return i < len(d) && d[i] == a
}

// Set is a grow-only set of atoms indexed by predicate, with a cached state
// identity. Each per-predicate list is append-only, so its length at some
// moment names exactly what the set held of that predicate then, and the
// atoms past it are what has arrived since: the engine's evaluation stamps
// are such lengths. The zero value is an empty set.
type Set struct {
	// byPred is indexed by PredID (symbol tables number predicates densely)
	// and grown to the largest predicate added.
	byPred [][]AtomID
	n      int
	// index finds a member by its position in its predicate's list once
	// there are more than a scan of that list should look at; most sets —
	// the cells of a fixpoint — never get there.
	index  *intern.Index
	cached StateID
	dirty  bool
	frozen bool
}

// scanMax is the size up to which membership in a Set is a linear scan.
// Measured (EXPERIMENTS.md A22, "One set, two membership paths"): of the
// 130 / 1 025 / 587 sets a cold solve of the three write families makes, the
// largest cell holds 10 atoms and one set — a program's global facts — passes
// 16. An index from the first atom on costs Subsets(7)'s cold compile 26 %
// more allocations and ~1.2× the time; a scan with no index behind it takes
// 54 ms against 1.5 to load 20 000 facts of one predicate.
const scanMax = 16

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Freeze returns a read-only view of s as it is now, for any number of
// readers while s keeps growing: the per-predicate lists cut at their
// lengths and the same index, which the view reads up to those lengths.
func (s *Set) Freeze() *Set {
	v := *s
	v.byPred = make([][]AtomID, len(s.byPred))
	for p, atoms := range s.byPred {
		v.byPred[p] = atoms[:len(atoms):len(atoms)]
	}
	if s.index != nil {
		ix := *s.index
		v.index = &ix
	}
	v.frozen = true
	return &v
}

func hashAtom(a AtomID) uint32 { return intern.Hash(uint64(a)) }

// has reports whether a is in list, its predicate's.
func (s *Set) has(list []AtomID, a AtomID) bool {
	if s.index == nil {
		return slices.Contains(list, a)
	}
	return s.index.Find(hashAtom(a), int32(len(list)), func(pos int32) bool { return list[pos] == a }) >= 0
}

// Add inserts a and reports whether it was new.
func (s *Set) Add(w *World, a AtomID) bool {
	p := w.AtomPred(a)
	if s.has(s.ByPred(p), a) {
		return false
	}
	if s.frozen {
		panic("facts: Add to a frozen Set")
	}
	if s.n == scanMax {
		s.index = intern.New(2 * scanMax)
		for _, atoms := range s.byPred {
			for pos, b := range atoms {
				s.index.Insert(hashAtom(b), int32(pos))
			}
		}
	}
	if int(p) >= len(s.byPred) {
		s.byPred = append(s.byPred, make([][]AtomID, int(p)+1-len(s.byPred))...)
	}
	if s.index != nil {
		s.index.Insert(hashAtom(a), int32(len(s.byPred[p])))
	}
	s.byPred[p] = append(s.byPred[p], a)
	s.n++
	s.dirty = true
	return true
}

// AddState inserts every atom of the interned state st.
func (s *Set) AddState(w *World, st StateID) bool {
	changed := false
	for _, a := range w.StateAtoms(st) {
		if s.Add(w, a) {
			changed = true
		}
	}
	return changed
}

// Has reports membership of a, an atom of w.
func (s *Set) Has(w *World, a AtomID) bool { return s.has(s.ByPred(w.AtomPred(a)), a) }

// ByPred returns the atoms of predicate p, in insertion order. The caller
// must not modify the slice.
func (s *Set) ByPred(p symbols.PredID) []AtomID {
	if int(p) < len(s.byPred) {
		return s.byPred[p]
	}
	return nil
}

// Len returns the number of atoms in the set.
func (s *Set) Len() int { return s.n }

// All returns the atoms of the set, grouped by predicate.
func (s *Set) All() []AtomID { return s.appendAll(make([]AtomID, 0, s.n)) }

func (s *Set) appendAll(out []AtomID) []AtomID {
	for _, atoms := range s.byPred {
		out = append(out, atoms...)
	}
	return out
}

// StateID interns the current contents as a state, caching the result until
// the next Add.
func (s *Set) StateID(w *World) StateID {
	if !s.dirty {
		return s.cached // a fresh Set caches EmptyState
	}
	var buf [64]AtomID
	sorted := s.appendAll(buf[:0])
	slices.Sort(sorted)
	s.cached = w.State(sorted)
	s.dirty = false
	return s.cached
}
