package congruence

import (
	"funcdb/internal/term"
)

// Frozen is an immutable congruence relation: the fully path-compressed
// class map of a Solver plus its signature table, both rebuilt over class
// representatives. It answers Congruent with zero mutation of shared state,
// so any number of goroutines may query one Frozen concurrently, each with
// its own Scratch for novel terms.
//
// Correctness of the read-only query: deciding Congruent(t1, t2) in the
// mutable solver first adds the queried terms' subterm graphs. Adding a
// fresh term f(c) without asserting new equations can never merge two
// existing classes — it either joins the class sig[(f, class(c))] when that
// signature exists, or forms a fresh singleton (recorded in the scratch's
// signature overlay so later fresh terms with the same signature join it).
// The frozen class of every pre-existing term is therefore exactly the
// mutable solver's answer.
type Frozen struct {
	class map[term.Term]term.Term // present term -> class representative
	sig   map[sigKey]term.Term    // (symbol, class of child) -> class
}

// Freeze captures the solver's current congruence. The solver may keep
// being used afterwards; the frozen value never changes.
func (s *Solver) Freeze() *Frozen {
	f := &Frozen{
		class: make(map[term.Term]term.Term, len(s.present)),
		sig:   make(map[sigKey]term.Term, len(s.sig)),
	}
	for t := range s.present {
		f.class[t] = s.find(t)
	}
	for t := range s.present {
		if t == term.Zero {
			continue
		}
		f.sig[sigKey{s.u.Top(t), f.class[s.u.Child(t)]}] = f.class[t]
	}
	return f
}

// Scratch holds one query's view of terms not in the frozen subterm graph:
// their memoized classes and the signatures of fresh singletons. A Scratch
// belongs to a single query evaluation and is not safe for concurrent use.
type Scratch struct {
	class map[term.Term]term.Term
	sig   map[sigKey]term.Term
}

// NewScratch returns an empty per-query overlay.
func NewScratch() *Scratch {
	return &Scratch{
		class: make(map[term.Term]term.Term),
		sig:   make(map[sigKey]term.Term),
	}
}

// Reset drops the overlay's memoized classes and signatures, keeping the
// map storage so pooled scratches can be reused without allocating.
func (sc *Scratch) Reset() {
	clear(sc.class)
	clear(sc.sig)
}

// classOf resolves the congruence class of t, consulting the frozen maps
// first and the query-local overlay for novel terms.
func (f *Frozen) classOf(v *term.Universe, t term.Term, sc *Scratch) term.Term {
	if c, ok := f.class[t]; ok {
		return c
	}
	if c, ok := sc.class[t]; ok {
		return c
	}
	var c term.Term
	if t == term.Zero {
		// Zero absent from the graph: it is its own singleton class.
		c = t
	} else {
		child := f.classOf(v, v.Child(t), sc)
		key := sigKey{v.Top(t), child}
		if q, ok := f.sig[key]; ok {
			c = q
		} else if q, ok := sc.sig[key]; ok {
			c = q
		} else {
			sc.sig[key] = t
			c = t
		}
	}
	sc.class[t] = c
	return c
}

// Congruent decides (t1, t2) ∈ Cl(R) without mutating the frozen relation.
// The terms may live in v, a query-local overlay; sc accumulates the query's
// view of them.
func (f *Frozen) Congruent(v *term.Universe, t1, t2 term.Term, sc *Scratch) bool {
	return f.classOf(v, t1, sc) == f.classOf(v, t2, sc)
}

// CongruentToAny reports whether t is congruent to any candidate — the
// paper's membership test, lock-free.
func (f *Frozen) CongruentToAny(v *term.Universe, t term.Term, candidates []term.Term, sc *Scratch) bool {
	ct := f.classOf(v, t, sc)
	for _, c := range candidates {
		if ct == f.classOf(v, c, sc) {
			return true
		}
	}
	return false
}

// Freeze builds the frozen congruence of the specification's relation R.
// It constructs a private solver (reading, never writing, the universe) so
// the EqSpec's own incremental solver keeps serving the locked path.
func (es *EqSpec) Freeze() *Frozen {
	slv := NewSolver(es.U)
	for _, p := range es.Pairs {
		slv.Assert(p[0], p[1])
	}
	return slv.Freeze()
}
