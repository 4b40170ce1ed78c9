package query

import (
	"context"
	"fmt"
	"math"
	"strings"

	"funcdb/internal/ast"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// unreachable is the distance of a state no answer can be reached from.
const unreachable = math.MaxInt32

// distances returns, per state of tab, the number of applications to the
// nearest state carrying an answer tuple (off[s] < off[s+1]): one
// breadth-first search over the reversed successor edges, from all such
// states at once.
func distances(tab *specgraph.Table, off []int32) []int32 {
	n := tab.NumStates()
	// Reversed edges in compressed rows: the sources of the edges into
	// state s are src[start[s]:start[s+1]].
	start := make([]int32, n+1)
	for s := 0; s < n; s++ {
		for _, to := range tab.Row(int32(s)) {
			start[to+1]++
		}
	}
	for s := 0; s < n; s++ {
		start[s+1] += start[s]
	}
	src := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for s := 0; s < n; s++ {
		for _, to := range tab.Row(int32(s)) {
			src[fill[to]] = int32(s)
			fill[to]++
		}
	}
	dist := make([]int32, n)
	queue := fill[:0] // fill is spent; reuse it
	for s := range dist {
		if off[s] < off[s+1] {
			queue = append(queue, int32(s))
		} else {
			dist[s] = unreachable
		}
	}
	for i := 0; i < len(queue); i++ {
		s := queue[i]
		for _, from := range src[start[s]:start[s+1]] {
			if dist[from] == unreachable {
				dist[from] = dist[s] + 1
				queue = append(queue, from)
			}
		}
	}
	return dist
}

// Specification is the finite relational specification (Q(B), T) of one
// query's (possibly infinite) answer: per representative, the answer's data
// tuples as constants, over a successor table. It is immutable — computed
// once per query and snapshot and then only read, by any number of Answers
// handles at once.
type Specification struct {
	q     *ast.Query
	names *symbols.Table
	tab   *specgraph.Table
	// fn: the answer tuples carry a functional component, and off indexes
	// the table's states. Otherwise every tuple sits under one key, off is
	// {0, n}, and dist is nil.
	fn bool
	// The tuples of key s are number off[s] to off[s+1] (exclusive), in
	// first-derivation order; tuple i is args[i*arity:(i+1)*arity], the
	// bindings of the non-functional free variables in their order.
	arity int
	off   []int32
	args  []symbols.ConstID
	// dist[s] is the number of applications from state s to the nearest
	// state with a tuple, or unreachable: what lets enumeration skip every
	// subtree that holds no answer.
	dist []int32
	// private: tab belongs to this specification alone (Compile).
	private bool
}

// Bytes estimates what the specification retains beyond a shared table.
func (s *Specification) Bytes() int {
	n := 160 + 4*(len(s.off)+len(s.args)+len(s.dist))
	if s.private {
		n += s.tab.Bytes()
	}
	return n
}

// IsEmpty reports whether the answer set is empty.
func (s *Specification) IsEmpty() bool { return s.off[len(s.off)-1] == 0 }

// Table returns the successor table T the answer is specified over: the
// evaluated specification's own for a uniform query (Theorem 5.1), the
// enlarged program's otherwise.
func (s *Specification) Table() *specgraph.Table { return s.tab }

// tuple returns the data constants of tuple i.
func (s *Specification) tuple(i int32) []symbols.ConstID {
	lo := int(i) * s.arity
	return s.args[lo : lo+s.arity : lo+s.arity]
}

// Answers returns a handle for one goroutine's membership tests and
// enumerations on the specification of a frozen snapshot: terms it yields
// are interned in a private arena over base, created on first use.
func (s *Specification) Answers(base *term.Universe) *Answers {
	return &Answers{spec: s, base: base}
}

// Answers is one reader's handle on a query's answer specification. The
// specification is shared; the handle owns the term arena that yielded
// terms live in, so it is single-goroutine, and any number of handles on
// one specification work at once with no lock between them.
type Answers struct {
	// Spec is the underlying live graph specification, when the answer was
	// built against one (Incremental, Recompute); answers on a frozen
	// snapshot leave it nil.
	Spec *specgraph.Spec

	spec *Specification
	view *term.Universe // where yielded terms are interned
	base *term.Universe // frozen: view is an arena over base, made on first use
}

func (a *Answers) terms() *term.Universe {
	if a.view == nil {
		a.view = term.NewUniverseOver(a.base)
	}
	return a.view
}

// HasFunctionalAnswers reports whether answer tuples carry a functional
// component.
func (a *Answers) HasFunctionalAnswers() bool { return a.spec.fn }

// IsEmpty reports whether the answer set is empty.
func (a *Answers) IsEmpty() bool { return a.spec.IsEmpty() }

// key returns the state ft's tuples are listed under: the DFA run on its
// symbols, or the single key of an answer with no functional component.
func (a *Answers) key(ft term.Term) (int32, error) {
	if !a.spec.fn {
		return 0, nil
	}
	state, bad, ok := a.spec.tab.Walk(a.terms().Symbols(ft))
	if !ok {
		return 0, errNotInAlphabet(bad)
	}
	return state, nil
}

func errNotInAlphabet(f symbols.FuncID) error {
	return fmt.Errorf("query: symbol %v is not in the specification's alphabet", f)
}

// Contains decides whether the ground tuple (ft, dataArgs) — dataArgs in
// the order of the non-functional free variables — belongs to the answer.
// For answers without a functional component pass term.None.
func (a *Answers) Contains(ft term.Term, dataArgs []symbols.ConstID) (bool, error) {
	s := a.spec
	key, err := a.key(ft)
	if err != nil || len(dataArgs) != s.arity {
		return false, err
	}
next:
	for i := s.off[key]; i < s.off[key+1]; i++ {
		for j, c := range s.tuple(i) {
			if c != dataArgs[j] {
				continue next
			}
		}
		return true, nil
	}
	return false, nil
}

// TermString renders a functional answer component yielded by Enumerate.
func (a *Answers) TermString(t term.Term) string {
	return a.terms().String(t, a.spec.names)
}

// CompactTermString renders a functional answer component in the paper's
// compact notation.
func (a *Answers) CompactTermString(t term.Term) string {
	return a.terms().CompactString(t, a.spec.names)
}

// ConstName renders a data constant of an answer tuple.
func (a *Answers) ConstName(c symbols.ConstID) string { return a.spec.names.ConstName(c) }

// TermSymbols returns the function symbols of a functional answer
// component, innermost-first.
func (a *Answers) TermSymbols(t term.Term) []symbols.FuncID { return a.terms().Symbols(t) }

// FuncName renders a function symbol of an answer term.
func (a *Answers) FuncName(f symbols.FuncID) string { return a.spec.names.FuncName(f) }

// Enumerate yields ground answers with functional components of depth at
// most maxDepth, in precedence order of the functional component. For
// purely non-functional answers it yields each tuple once with term.None.
// It stops early when yield returns false. The dataArgs slice is the
// specification's own: read it, do not keep or change it.
func (a *Answers) Enumerate(maxDepth int, yield func(ft term.Term, dataArgs []symbols.ConstID) bool) error {
	return a.EnumerateContext(context.Background(), maxDepth, yield)
}

// pollEvery is how many enumeration steps (a term visited, or one of its
// successors examined) pass between looks at the context.
const pollEvery = 1024

// EnumerateContext is Enumerate with cancellation. It walks the successor
// table breadth-first over (term, state) pairs, never entering a subtree
// whose nearest answer lies deeper than the depth that remains: the cost
// is the live terms times the alphabet, not alphabet^maxDepth, and it holds
// one level of live terms at a time.
func (a *Answers) EnumerateContext(ctx context.Context, maxDepth int, yield func(ft term.Term, dataArgs []symbols.ConstID) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s := a.spec
	if !s.fn {
		for i := s.off[0]; i < s.off[1]; i++ {
			if !yield(term.None, s.tuple(i)) {
				return nil
			}
		}
		return nil
	}
	type node struct {
		t     term.Term
		state int32
	}
	tab, k := s.tab, len(s.tab.Alphabet)
	var level, next []node
	if int(s.dist[specgraph.Root]) <= maxDepth {
		level = append(level, node{term.Zero, specgraph.Root})
	}
	u := a.terms()
	steps := 0
	for depth := 0; len(level) > 0; depth++ {
		below := maxDepth - depth - 1 // applications left under a child
		next = next[:0]
		for _, n := range level {
			if steps += 1 + k; steps >= pollEvery {
				steps = 0
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for i := s.off[n.state]; i < s.off[n.state+1]; i++ {
				if !yield(n.t, s.tuple(i)) {
					return nil
				}
			}
			for j, to := range tab.Row(n.state) {
				if int(s.dist[to]) <= below {
					next = append(next, node{u.Apply(tab.Alphabet[j], n.t), to})
				}
			}
		}
		level, next = next, level
	}
	return nil
}

// Dump renders the answer specification: the QUERY extension per
// representative (the incremental primary database Q(B)).
func (a *Answers) Dump() string {
	s := a.spec
	var b strings.Builder
	fmt.Fprintf(&b, "answer specification for %s\n", s.q.Format(s.names))
	writeArgs := func(i int32) {
		for j, c := range s.tuple(i) {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.names.ConstName(c))
		}
	}
	if !s.fn {
		for i := s.off[0]; i < s.off[1]; i++ {
			b.WriteString("  QUERY(")
			writeArgs(i)
			b.WriteString(")\n")
		}
		return b.String()
	}
	u := a.terms()
	for state := range s.tab.Reps {
		if s.off[state] == s.off[state+1] {
			continue
		}
		// The table's own Reps may live in a universe that is gone (Compile):
		// intern the representative afresh from its symbols.
		rep := u.ApplyString(term.Zero, s.tab.Path(int32(state))...)
		for i := s.off[state]; i < s.off[state+1]; i++ {
			fmt.Fprintf(&b, "  QUERY(%s", u.CompactString(rep, s.names))
			if s.arity > 0 {
				b.WriteString(", ")
				writeArgs(i)
			}
			b.WriteString(")\n")
		}
	}
	return b.String()
}
