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
	"encoding/binary"
	"slices"
	"sort"

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

type atomKey struct {
	pred  symbols.PredID
	tuple TupleID
}

// World interns tuples, atoms and states. The zero value is not usable;
// call NewWorld.
type World struct {
	tupleData [][]symbols.ConstID
	tupleBy   map[string]TupleID

	atoms  []atomRec
	atomBy map[atomKey]AtomID

	stateData [][]AtomID
	stateBy   map[string]StateID
}

// NewWorld returns an empty interning context. The empty state is
// pre-interned as EmptyState.
func NewWorld() *World {
	w := &World{
		tupleBy: make(map[string]TupleID),
		atomBy:  make(map[atomKey]AtomID),
		stateBy: make(map[string]StateID),
	}
	w.stateData = append(w.stateData, nil)
	w.stateBy[""] = EmptyState
	return w
}

// appendKey appends the map key of a tuple or state — its identifiers, four
// bytes each — to buf. Interning looks the key up as string(key) straight in
// the map index expression, which does not allocate; only a miss builds the
// string it stores. Callers pass a stack buffer, so frozen worlds stay
// readable from any number of goroutines.
func appendKey[T ~int32](buf []byte, ids []T) []byte {
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// Tuple interns an argument tuple. The argument slice is copied.
func (w *World) Tuple(args []symbols.ConstID) TupleID {
	var buf [64]byte
	key := appendKey(buf[:0], args)
	if id, ok := w.tupleBy[string(key)]; ok {
		return id
	}
	id := TupleID(len(w.tupleData))
	w.tupleData = append(w.tupleData, append([]symbols.ConstID(nil), args...))
	w.tupleBy[string(key)] = id
	return id
}

// TupleArgs returns the constants of tu. The caller must not modify it.
func (w *World) TupleArgs(tu TupleID) []symbols.ConstID { return w.tupleData[tu] }

// Atom interns the function-free atom pred(tuple).
func (w *World) Atom(pred symbols.PredID, tuple TupleID) AtomID {
	key := atomKey{pred, tuple}
	if id, ok := w.atomBy[key]; ok {
		return id
	}
	id := AtomID(len(w.atoms))
	w.atoms = append(w.atoms, atomRec{pred, tuple})
	w.atomBy[key] = id
	return id
}

// AtomPred returns the predicate of a.
func (w *World) AtomPred(a AtomID) symbols.PredID { return w.atoms[a].pred }

// AtomTuple returns the tuple of a.
func (w *World) AtomTuple(a AtomID) TupleID { return w.atoms[a].tuple }

// NumAtoms returns the number of interned atoms.
func (w *World) NumAtoms() int { return len(w.atoms) }

// State interns a set of atoms given as a sorted slice, which is copied.
func (w *World) State(sorted []AtomID) StateID {
	var buf [256]byte
	key := appendKey(buf[:0], sorted)
	if id, ok := w.stateBy[string(key)]; ok {
		return id
	}
	id := StateID(len(w.stateData))
	w.stateData = append(w.stateData, append([]AtomID(nil), sorted...))
	w.stateBy[string(key)] = id
	return id
}

// StateAtoms returns the sorted atoms of s. The caller must not modify it.
func (w *World) StateAtoms(s StateID) []AtomID { return w.stateData[s] }

// StateLen returns the number of atoms in s.
func (w *World) StateLen(s StateID) int { return len(w.stateData[s]) }

// NumStates returns the number of interned states.
func (w *World) NumStates() int { return len(w.stateData) }

// StateContains reports whether atom a belongs to state s.
func (w *World) StateContains(s StateID, a AtomID) bool {
	d := w.stateData[s]
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
	// index holds the members once there are more than a scan of one
	// predicate's list should look at; most sets — the cells of a fixpoint —
	// never get there.
	index  map[AtomID]struct{}
	cached StateID
	dirty  bool
}

// scanMax is the size up to which membership in a Set is a linear scan.
// Measured (EXPERIMENTS.md A22, "One set, two membership paths"): of the
// 130 / 1 025 / 587 sets a cold solve of the three write families makes, the
// largest cell holds 10 atoms and one set — a program's global facts — passes
// 16. A map from the first atom on costs Subsets(7)'s cold compile 26 % more
// allocations and ~1.2× the time; a scan with no map behind it takes 54 ms
// against 1.5 to load 20 000 facts of one predicate.
const scanMax = 16

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Add inserts a and reports whether it was new.
func (s *Set) Add(w *World, a AtomID) bool {
	p := w.AtomPred(a)
	if s.index != nil {
		if _, ok := s.index[a]; ok {
			return false
		}
	} else if slices.Contains(s.ByPred(p), a) {
		return false
	} else if s.n == scanMax {
		s.index = make(map[AtomID]struct{}, 2*scanMax)
		for _, b := range s.All() {
			s.index[b] = struct{}{}
		}
	}
	if s.index != nil {
		s.index[a] = struct{}{}
	}
	if int(p) >= len(s.byPred) {
		s.byPred = append(s.byPred, make([][]AtomID, int(p)+1-len(s.byPred))...)
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

// Has reports membership.
func (s *Set) Has(a AtomID) bool {
	if s.index != nil {
		_, ok := s.index[a]
		return ok
	}
	for _, atoms := range s.byPred {
		if slices.Contains(atoms, a) {
			return true
		}
	}
	return false
}

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
