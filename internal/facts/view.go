package facts

import (
	"sort"

	"funcdb/internal/symbols"
)

// WorldView is the interning surface shared by *World and *Scratch.
// Evaluation code written against a WorldView runs both on a live world and
// on a query-local scratch overlay over a frozen one.
type WorldView interface {
	Tuple(args []symbols.ConstID) TupleID
	TupleArgs(tu TupleID) []symbols.ConstID
	Atom(pred symbols.PredID, tuple TupleID) AtomID
	AtomPred(a AtomID) symbols.PredID
	AtomTuple(a AtomID) TupleID
	NumAtoms() int
	StateAtoms(s StateID) []AtomID
	StateContains(s StateID, a AtomID) bool
}

var (
	_ WorldView = (*World)(nil)
	_ WorldView = (*Scratch)(nil)
)

// Freeze returns an immutable copy of w sharing the record storage
// length-bounded (the writer's appends land at indices the frozen copy
// never reads) and copying the interning maps. The frozen copy must never
// be mutated; wrap it in a Scratch to intern query-local records over it.
func (w *World) Freeze() *World {
	out := &World{
		tupleData: w.tupleData[:len(w.tupleData):len(w.tupleData)],
		tupleBy:   make(map[string]TupleID, len(w.tupleBy)),
		atoms:     w.atoms[:len(w.atoms):len(w.atoms)],
		atomBy:    make(map[atomKey]AtomID, len(w.atomBy)),
		stateData: w.stateData[:len(w.stateData):len(w.stateData)],
		stateBy:   make(map[string]StateID, len(w.stateBy)),
	}
	for k, v := range w.tupleBy {
		out.tupleBy[k] = v
	}
	for k, v := range w.atomBy {
		out.atomBy[k] = v
	}
	for k, v := range w.stateBy {
		out.stateBy[k] = v
	}
	return out
}

// Scratch is a query-local interning overlay over a frozen World. Lookups
// hit the frozen base first; novel tuples and atoms live in the scratch
// with identifiers continuing past the base lengths. States are never
// interned through a Scratch (answering needs only the frozen states). Any
// number of Scratch values may share one frozen base concurrently; a single
// Scratch is not safe for concurrent use.
type Scratch struct {
	base *World

	tupleData [][]symbols.ConstID
	tupleBy   map[string]TupleID

	atoms  []atomRec
	atomBy map[atomKey]AtomID
}

// NewScratch returns an empty overlay over the frozen base world.
func NewScratch(base *World) *Scratch { return &Scratch{base: base} }

// Base returns the frozen world under the overlay.
func (s *Scratch) Base() *World { return s.base }

// Reset re-points the overlay at base and drops every scratch-local tuple
// and atom, keeping allocated capacity so pooled overlays can be reused
// without allocating.
func (s *Scratch) Reset(base *World) {
	s.base = base
	s.tupleData = s.tupleData[:0]
	s.atoms = s.atoms[:0]
	clear(s.tupleBy)
	clear(s.atomBy)
}

// Tuple interns an argument tuple, preferring the frozen base.
func (s *Scratch) Tuple(args []symbols.ConstID) TupleID {
	var buf [64]byte
	key := appendKey(buf[:0], args)
	if id, ok := s.base.tupleBy[string(key)]; ok {
		return id
	}
	if id, ok := s.tupleBy[string(key)]; ok {
		return id
	}
	id := TupleID(len(s.base.tupleData) + len(s.tupleData))
	s.tupleData = append(s.tupleData, append([]symbols.ConstID(nil), args...))
	if s.tupleBy == nil {
		s.tupleBy = make(map[string]TupleID)
	}
	s.tupleBy[string(key)] = id
	return id
}

// TupleArgs returns the constants of tu, from base or overlay.
func (s *Scratch) TupleArgs(tu TupleID) []symbols.ConstID {
	if int(tu) < len(s.base.tupleData) {
		return s.base.tupleData[tu]
	}
	return s.tupleData[int(tu)-len(s.base.tupleData)]
}

// Atom interns the function-free atom pred(tuple), preferring the base.
func (s *Scratch) Atom(pred symbols.PredID, tuple TupleID) AtomID {
	key := atomKey{pred, tuple}
	if id, ok := s.base.atomBy[key]; ok {
		return id
	}
	if id, ok := s.atomBy[key]; ok {
		return id
	}
	id := AtomID(len(s.base.atoms) + len(s.atoms))
	s.atoms = append(s.atoms, atomRec{pred, tuple})
	if s.atomBy == nil {
		s.atomBy = make(map[atomKey]AtomID)
	}
	s.atomBy[key] = id
	return id
}

// AtomPred returns the predicate of a, from base or overlay.
func (s *Scratch) AtomPred(a AtomID) symbols.PredID {
	if int(a) < len(s.base.atoms) {
		return s.base.atoms[a].pred
	}
	return s.atoms[int(a)-len(s.base.atoms)].pred
}

// AtomTuple returns the tuple of a, from base or overlay.
func (s *Scratch) AtomTuple(a AtomID) TupleID {
	if int(a) < len(s.base.atoms) {
		return s.base.atoms[a].tuple
	}
	return s.atoms[int(a)-len(s.base.atoms)].tuple
}

// NumAtoms returns the number of atoms visible through the overlay.
func (s *Scratch) NumAtoms() int { return len(s.base.atoms) + len(s.atoms) }

// StateAtoms returns the sorted atoms of the frozen state st. Scratches
// intern no states, so st always refers to the base.
func (s *Scratch) StateAtoms(st StateID) []AtomID { return s.base.stateData[st] }

// StateContains reports whether atom a belongs to the frozen state st. A
// scratch-local atom can never belong to a frozen state.
func (s *Scratch) StateContains(st StateID, a AtomID) bool {
	if int(a) >= len(s.base.atoms) {
		return false
	}
	d := s.base.stateData[st]
	i := sort.Search(len(d), func(i int) bool { return d[i] >= a })
	return i < len(d) && d[i] == a
}

// FrozenSet is an immutable copy of a Set, sharing the per-predicate
// slices length-bounded and copying the membership. Concurrent readers may
// use it freely while the original keeps growing.
type FrozenSet struct {
	all    map[AtomID]struct{}
	byPred [][]AtomID
}

// FreezeSet captures the current contents of s.
func FreezeSet(s *Set) *FrozenSet {
	out := &FrozenSet{
		all:    make(map[AtomID]struct{}, s.n),
		byPred: make([][]AtomID, len(s.byPred)),
	}
	for p, atoms := range s.byPred {
		out.byPred[p] = atoms[:len(atoms):len(atoms)]
		for _, a := range atoms {
			out.all[a] = struct{}{}
		}
	}
	return out
}

// Has reports membership.
func (s *FrozenSet) Has(a AtomID) bool {
	_, ok := s.all[a]
	return ok
}

// ByPred returns the atoms of predicate p, in insertion order.
func (s *FrozenSet) ByPred(p symbols.PredID) []AtomID {
	if int(p) < len(s.byPred) {
		return s.byPred[p]
	}
	return nil
}

// Len returns the number of atoms in the set.
func (s *FrozenSet) Len() int { return len(s.all) }
