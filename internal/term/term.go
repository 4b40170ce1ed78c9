// Package term implements the universe of ground functional terms of a
// functional deductive database.
//
// After rule normalization and elimination of mixed function symbols
// (package rewrite), every ground functional term is a finite string of pure
// unary function symbols applied to the single functional constant 0:
//
//	f1(f2(...fk(0)...))
//
// The Universe hash-conses these terms: a Term is a dense integer handle,
// equality is integer comparison, and depth, topmost symbol and the immediate
// subterm are O(1) lookups. The paper's breadth-first precedence ordering on
// terms (section 3.4) is provided by Compare.
package term

import (
	"strings"

	"funcdb/internal/intern"
	"funcdb/internal/symbols"
)

// Term is a handle to an interned ground functional term. Zero is the
// functional constant 0; every other term is Apply(f, t) for a unique pair
// (f, t).
type Term int32

// Zero is the handle of the functional constant 0. It is the same in every
// Universe.
const Zero Term = 0

// None is a sentinel invalid term.
const None Term = -1

type node struct {
	top   symbols.FuncID // topmost (outermost) function symbol
	child Term           // immediate subterm
	depth int32          // number of function applications above 0
}

// Universe interns ground functional terms; it is the package's one store.
// NewUniverse makes a root universe, which one goroutine at a time may grow.
// Freeze cuts a read-only view of it at its current length, safe for any
// number of readers while the root keeps growing. NewUniverseOver makes an
// overlay: a single-goroutine universe whose terms continue past a frozen
// view's, for what one query interns. The zero value is not usable.
type Universe struct {
	base   *Universe // the frozen view under an overlay, nil otherwise
	lo     int       // base.Size(): the handle of nodes[0]
	nodes  []node
	byApp  intern.Index
	frozen bool
}

// NewUniverse returns a universe containing only the functional constant 0.
func NewUniverse() *Universe {
	return &Universe{nodes: []node{{top: symbols.NoFunc, child: None}}}
}

// NewUniverseOver returns an empty overlay over base, a frozen view of a
// root universe. Lookups find base's terms first; novel terms get handles
// from base.Size() on and go with the overlay. Overlays over one base never
// see each other.
func NewUniverseOver(base *Universe) *Universe {
	u := &Universe{}
	u.Reset(base)
	return u
}

// Reset re-points an overlay at base and drops every term of its own,
// keeping allocated capacity so pooled overlays are reused without
// allocating.
func (u *Universe) Reset(base *Universe) {
	if !base.frozen || base.base != nil {
		panic("term: an overlay needs a frozen view of a root universe under it")
	}
	u.base, u.lo = base, base.Size()
	u.nodes = u.nodes[:0]
	u.byApp.Reset()
}

// Freeze returns a read-only view of u as it is now: the same node array cut
// at its length, and the same index, which the view reads up to that length
// (see package intern). It copies nothing, so u may keep growing — appends
// land past what the view reads. Interning a new term through the view
// panics; make an overlay with NewUniverseOver for that.
func (u *Universe) Freeze() *Universe {
	v := *u
	v.nodes = u.nodes[:len(u.nodes):len(u.nodes)]
	v.frozen = true
	return &v
}

func (u *Universe) node(t Term) node {
	if int(t) < u.lo {
		return u.base.nodes[t]
	}
	return u.nodes[int(t)-u.lo]
}

// find looks f(t) up among the base's terms, then u's own.
func (u *Universe) find(h uint32, f symbols.FuncID, t Term) int32 {
	if u.base != nil {
		if id := u.base.find(h, f, t); id >= 0 {
			return id
		}
	}
	return u.byApp.Find(h, int32(u.Size()), func(id int32) bool {
		n := u.nodes[int(id)-u.lo]
		return n.top == f && n.child == t
	})
}

// Apply interns the term f(t).
func (u *Universe) Apply(f symbols.FuncID, t Term) Term {
	h := intern.Hash(uint64(uint32(f))<<32 | uint64(uint32(t)))
	if id := u.find(h, f, t); id >= 0 {
		return Term(id)
	}
	if u.frozen {
		panic("term: Apply of a new term on a frozen Universe")
	}
	id := Term(u.Size())
	u.nodes = append(u.nodes, node{top: f, child: t, depth: u.node(t).depth + 1})
	u.byApp.Insert(h, int32(id))
	return id
}

// ApplyString interns fs[k-1](...fs[0](t)...): the symbols are applied
// innermost-first, so ApplyString(t, f, g) builds g(f(t)).
func (u *Universe) ApplyString(t Term, fs ...symbols.FuncID) Term {
	for _, f := range fs {
		t = u.Apply(f, t)
	}
	return t
}

// Depth returns the number of function applications in t; Depth(Zero) == 0.
func (u *Universe) Depth(t Term) int { return int(u.node(t).depth) }

// Top returns the outermost function symbol of t. It must not be called on
// Zero.
func (u *Universe) Top(t Term) symbols.FuncID { return u.node(t).top }

// Child returns the immediate subterm of t (the term t with its outermost
// symbol removed). It must not be called on Zero.
func (u *Universe) Child(t Term) Term { return u.node(t).child }

// Symbols returns the function symbols of t listed innermost-first, so that
// t == ApplyString(Zero, Symbols(t)...).
func (u *Universe) Symbols(t Term) []symbols.FuncID {
	d := u.Depth(t)
	out := make([]symbols.FuncID, d)
	for i := d - 1; i >= 0; i-- {
		n := u.node(t)
		out[i], t = n.top, n.child
	}
	return out
}

// Subterms returns all subterms of t from 0 up to and including t,
// innermost-first: 0, f1(0), f2(f1(0)), ..., t.
func (u *Universe) Subterms(t Term) []Term {
	d := u.Depth(t)
	out := make([]Term, d+1)
	for i := d; i >= 0; i-- {
		out[i] = t
		if t != Zero {
			t = u.node(t).child
		}
	}
	return out
}

// Size returns the number of interned terms.
func (u *Universe) Size() int { return u.lo + len(u.nodes) }

// Compare orders terms by the paper's precedence ordering (section 3.4):
// first by depth (a breadth-first traversal of the term tree), then
// lexicographically on the string of function symbols read innermost-first.
// With two symbols a < b this yields 0, a, b, aa, ab, ba, bb, aba, ... .
// It returns -1, 0 or 1.
func (u *Universe) Compare(t1, t2 Term) int {
	if t1 == t2 {
		return 0
	}
	d1, d2 := u.Depth(t1), u.Depth(t2)
	switch {
	case d1 < d2:
		return -1
	case d1 > d2:
		return 1
	}
	// Same depth: compare symbol strings innermost-first.
	s1 := u.Symbols(t1)
	s2 := u.Symbols(t2)
	for i := range s1 {
		switch {
		case s1[i] < s2[i]:
			return -1
		case s1[i] > s2[i]:
			return 1
		}
	}
	return 0
}

// Precedes reports whether t1 strictly precedes t2 in the precedence
// ordering.
func (u *Universe) Precedes(t1, t2 Term) bool { return u.Compare(t1, t2) < 0 }

// String formats t using the symbol names in tab, in functional notation:
// g(f(0)). Chains of a symbol named "succ" are printed as decimal integers,
// matching the paper's temporal sugar (succ(succ(0)) prints as 2 when the
// whole term is a succ-chain).
func (u *Universe) String(t Term, tab *symbols.Table) string {
	succ := symbols.NoFunc
	if s, ok := tab.LookupFunc(SuccName, 0); ok {
		succ = s
	}
	var b strings.Builder
	u.writeTerm(&b, t, tab, succ)
	return b.String()
}

func (u *Universe) writeTerm(b *strings.Builder, t Term, tab *symbols.Table, succ symbols.FuncID) {
	if succ != symbols.NoFunc {
		if n, isNum := u.AsNumber(t, succ); isNum {
			b.WriteString(itoa(n))
			return
		}
	}
	if t == Zero {
		b.WriteByte('0')
		return
	}
	n := u.node(t)
	b.WriteString(tab.FuncName(n.top))
	b.WriteByte('(')
	u.writeTerm(b, n.child, tab, succ)
	b.WriteByte(')')
}

// CompactString formats t as the string of its function-symbol names read
// innermost-first, separated by dots when any name is longer than one
// character. Zero prints as "0". This matches the paper's compact notation
// where ext_b(ext_a(0)) is written "ab".
func (u *Universe) CompactString(t Term, tab *symbols.Table) string {
	if t == Zero {
		return "0"
	}
	if succ, ok := tab.LookupFunc(SuccName, 0); ok {
		if n, isNum := u.AsNumber(t, succ); isNum {
			return itoa(n)
		}
	}
	syms := u.Symbols(t)
	parts := make([]string, len(syms))
	long := false
	for i, f := range syms {
		parts[i] = tab.FuncName(f)
		if len(parts[i]) != 1 {
			long = true
		}
	}
	if long {
		return strings.Join(parts, ".")
	}
	return strings.Join(parts, "")
}

// SuccName is the reserved name of the temporal successor function symbol,
// the paper's "+1".
const SuccName = "succ"

// Number interns the temporal term succ^n(0).
func (u *Universe) Number(n int, succ symbols.FuncID) Term {
	t := Zero
	for i := 0; i < n; i++ {
		t = u.Apply(succ, t)
	}
	return t
}

// AsNumber reports whether t is a pure succ-chain succ^n(0), and if so
// returns n.
func (u *Universe) AsNumber(t Term, succ symbols.FuncID) (int, bool) {
	n := 0
	for t != Zero {
		nd := u.node(t)
		if nd.top != succ {
			return 0, false
		}
		t = nd.child
		n++
	}
	return n, true
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
