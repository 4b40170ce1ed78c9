// Package fixpoint implements depth-bounded bottom-up evaluation of pure
// (mixed-free) functional programs: the naive and seminaive computation of
// the least fixpoint LFP(Z, D) restricted to functional terms of a given
// maximal depth.
//
// This is the enumeration baseline the paper argues against in section 1
// (answers are produced tuple by tuple and are necessarily cut off at some
// depth), and it doubles as the differential-testing oracle for the exact
// engine: for derivations that never exceed the depth bound the truncated
// fixpoint agrees with the true one.
package fixpoint

import (
	"funcdb/internal/facts"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

type fnEntry struct {
	t  term.Term
	tu facts.TupleID
}

type fnKey struct {
	t  term.Term
	tu facts.TupleID
}

type fnIndex struct {
	byTerm  map[term.Term][]facts.TupleID
	has     map[fnKey]struct{}
	entries []fnEntry
}

func newFnIndex() *fnIndex {
	return &fnIndex{
		byTerm: make(map[term.Term][]facts.TupleID),
		has:    make(map[fnKey]struct{}),
	}
}

// Store holds the facts derived by an evaluation: non-functional facts as a
// set of interned atoms, functional facts indexed by predicate and term.
type Store struct {
	W *facts.World
	U *term.Universe

	data *facts.Set
	fn   map[symbols.PredID]*fnIndex

	count int
}

// NewStore returns an empty store over the given universe and world.
func NewStore(u *term.Universe, w *facts.World) *Store {
	return &Store{W: w, U: u, data: facts.NewSet(), fn: make(map[symbols.PredID]*fnIndex)}
}

// AddData inserts the non-functional fact pred(args) and reports whether it
// was new.
func (s *Store) AddData(pred symbols.PredID, tu facts.TupleID) bool {
	if s.data.Add(s.W, s.W.Atom(pred, tu)) {
		s.count++
		return true
	}
	return false
}

// AddFn inserts the functional fact pred(t, args) and reports whether it
// was new.
func (s *Store) AddFn(pred symbols.PredID, t term.Term, tu facts.TupleID) bool {
	idx := s.fn[pred]
	if idx == nil {
		idx = newFnIndex()
		s.fn[pred] = idx
	}
	key := fnKey{t, tu}
	if _, ok := idx.has[key]; ok {
		return false
	}
	idx.has[key] = struct{}{}
	idx.byTerm[t] = append(idx.byTerm[t], tu)
	idx.entries = append(idx.entries, fnEntry{t, tu})
	s.count++
	return true
}

// HasData reports whether the non-functional fact pred(args) holds.
func (s *Store) HasData(pred symbols.PredID, args []symbols.ConstID) bool {
	return s.data.Has(s.W, s.W.Atom(pred, s.W.Tuple(args)))
}

// HasFn reports whether the functional fact pred(t, args) holds.
func (s *Store) HasFn(pred symbols.PredID, t term.Term, args []symbols.ConstID) bool {
	idx := s.fn[pred]
	if idx == nil {
		return false
	}
	_, ok := idx.has[fnKey{t, s.W.Tuple(args)}]
	return ok
}

// Len returns the total number of facts in the store.
func (s *Store) Len() int { return s.count }

// Data returns the set of non-functional facts.
func (s *Store) Data() *facts.Set { return s.data }

// TuplesAt returns the tuples of pred at term t.
func (s *Store) TuplesAt(pred symbols.PredID, t term.Term) []facts.TupleID {
	idx := s.fn[pred]
	if idx == nil {
		return nil
	}
	return idx.byTerm[t]
}

// Slice returns the interned state of term t: the sorted set of
// function-free atoms pred(args) such that pred(t, args) holds, optionally
// restricted to the predicates in keep (nil keeps all). This is the paper's
// slice L[t] with the functional component stripped.
func (s *Store) Slice(t term.Term, keep map[symbols.PredID]bool) facts.StateID {
	set := facts.NewSet()
	for pred, idx := range s.fn {
		if keep != nil && !keep[pred] {
			continue
		}
		for _, tu := range idx.byTerm[t] {
			set.Add(s.W, s.W.Atom(pred, tu))
		}
	}
	return set.StateID(s.W)
}

// ForEachFn calls fn for every functional fact of pred.
func (s *Store) ForEachFn(pred symbols.PredID, fn func(t term.Term, tu facts.TupleID)) {
	idx := s.fn[pred]
	if idx == nil {
		return
	}
	for _, e := range idx.entries {
		fn(e.t, e.tu)
	}
}

// FnPreds returns the functional predicates that have at least one fact.
func (s *Store) FnPreds() []symbols.PredID {
	out := make([]symbols.PredID, 0, len(s.fn))
	for p := range s.fn {
		out = append(out, p)
	}
	return out
}

// Terms returns every term carrying at least one functional fact.
func (s *Store) Terms() []term.Term {
	seen := make(map[term.Term]bool)
	var out []term.Term
	for _, idx := range s.fn {
		for t := range idx.byTerm {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}
