package query

import (
	"context"
	"fmt"
	"math"
	"strings"

	"funcdb/internal/ast"
	"funcdb/internal/obs"
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
// enumerations on the specification.
func (s *Specification) Answers() *Answers {
	return &Answers{spec: s}
}

// Answers is one reader's handle on a query's answer specification. The
// specification is shared; the handle owns the scratch its enumerations
// walk in, so it is single-goroutine, and any number of handles on one
// specification work at once with no lock between them.
type Answers struct {
	spec *Specification
	// Paths' level arena and path buffer (pathTo), in small until outgrown.
	nodes []pathNode
	path  []symbols.FuncID
	at    []int32
	small struct {
		nodes [16]pathNode
		path  [16]symbols.FuncID
		at    [16]int32
	}
	// u holds the terms the last EnumerateContext yielded.
	u *term.Universe
}

// pathNode is a live node of an enumeration: state, reached by alphabet
// index sym from the node at arena index parent (-1 at the root).
type pathNode struct {
	parent, sym, state int32
}

// HasFunctionalAnswers reports whether answer tuples carry a functional
// component.
func (a *Answers) HasFunctionalAnswers() bool { return a.spec.fn }

// IsEmpty reports whether the answer set is empty.
func (a *Answers) IsEmpty() bool { return a.spec.IsEmpty() }

// key returns the state path's tuples are listed under: the DFA run on it,
// or the single key of an answer with no functional component.
func (a *Answers) key(path []symbols.FuncID) (int32, error) {
	if !a.spec.fn {
		return 0, nil
	}
	state, bad, ok := a.spec.tab.Walk(path)
	if !ok {
		return 0, fmt.Errorf("query: symbol %v is not in the specification's alphabet", bad)
	}
	return state, nil
}

// Contains decides whether the ground tuple (path, dataArgs) belongs to the
// answer: path is the functional component's symbols, innermost-first
// (ignored when the answer has none), and dataArgs are in the order of the
// non-functional free variables.
func (a *Answers) Contains(path []symbols.FuncID, dataArgs []symbols.ConstID) (bool, error) {
	s := a.spec
	key, err := a.key(path)
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

// ConstName renders a data constant of an answer tuple.
func (a *Answers) ConstName(c symbols.ConstID) string { return a.spec.names.ConstName(c) }

// FuncName renders a function symbol of an answer path.
func (a *Answers) FuncName(f symbols.FuncID) string { return a.spec.names.FuncName(f) }

// AppendPath appends the paper's compact notation of an answer path (see
// term.AppendCompact) to dst.
func (a *Answers) AppendPath(dst []byte, path []symbols.FuncID) []byte {
	return term.AppendCompact(dst, path, a.spec.names)
}

// pollEvery is how many enumeration steps (a node visited, or one of its
// successors examined) pass between looks at the context.
const pollEvery = 1024

// Paths yields the ground answers whose functional component has depth at
// most maxDepth, in its precedence order: path is the component's symbols,
// innermost-first (empty for 0; nil when the answer has no functional
// component, see HasFunctionalAnswers), args the data constants. It stops
// when yield returns false. Both slices are read-only and valid only during
// the call.
//
// The walk is breadth-first over the successor table and never enters a
// subtree whose nearest answer lies deeper than the depth left: it costs
// the live nodes times the alphabet, not alphabet^maxDepth. Every tuple
// yielded is charged to ctx's work budget: what a caller renders from them
// is not bounded by the specification's size.
func (a *Answers) Paths(ctx context.Context, maxDepth int, yield func(path []symbols.FuncID, args []symbols.ConstID) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	budget, s := obs.BudgetFrom(ctx), a.spec
	// emit yields tuples lo to hi under path; more is false when the walk
	// is to stop.
	emit := func(path []symbols.FuncID, lo, hi int32) (more bool, err error) {
		for t := lo; t < hi; t++ {
			if !yield(path, s.tuple(t)) {
				return false, nil
			}
			if err := budget.AddBytes(answerTupleBytes); err != nil {
				return false, err
			}
		}
		return true, nil
	}
	if !s.fn {
		_, err := emit(nil, s.off[0], s.off[1])
		return err
	}
	if a.nodes == nil {
		a.nodes, a.path, a.at = a.small.nodes[:0], a.small.path[:0], a.small.at[:0]
	}
	nodes := a.nodes[:0]
	a.path, a.at = a.path[:0], a.at[:0]
	defer func() { a.nodes = nodes[:0] }()
	if int(s.dist[specgraph.Root]) <= maxDepth {
		nodes = append(nodes, pathNode{-1, 0, specgraph.Root})
	}
	tab, k := s.tab, len(s.tab.Alphabet)
	steps, depth, levelEnd := 0, 0, len(nodes)
	for i := 0; i < len(nodes); i++ {
		if i == levelEnd {
			depth, levelEnd = depth+1, len(nodes)
		}
		if steps += 1 + k; steps >= pollEvery {
			steps = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n := nodes[i]
		if lo, hi := s.off[n.state], s.off[n.state+1]; lo < hi {
			if more, err := emit(a.pathTo(nodes, i, depth), lo, hi); !more {
				return err
			}
		}
		below := maxDepth - depth - 1 // applications left under a child
		for j, to := range tab.Row(n.state) {
			if int(s.dist[to]) <= below {
				nodes = append(nodes, pathNode{int32(i), int32(j), to})
			}
		}
	}
	return nil
}

// pathTo returns the path of node i, depth symbols long, in the handle's
// buffer, written by following parent links. The buffer holds the path
// asked for last and at[k] the node its first k+1 symbols lead to, so the
// walk stops at the first node the two paths share: in breadth-first order,
// mostly a step or two.
func (a *Answers) pathTo(nodes []pathNode, i, depth int) []symbols.FuncID {
	for len(a.at) < depth {
		a.path, a.at = append(a.path, 0), append(a.at, -1)
	}
	p, at := a.path[:depth], a.at[:depth]
	alphabet := a.spec.tab.Alphabet
	for k := depth - 1; k >= 0 && at[k] != int32(i); k-- {
		p[k], at[k] = alphabet[nodes[i].sym], int32(i)
		i = int(nodes[i].parent)
	}
	return p
}

// Tuple is one rendered ground answer: the functional component in compact
// notation (empty when there is none) and the data constants' names, the
// only form comparable across snapshots.
type Tuple struct {
	Term string   `json:"term,omitempty"`
	Args []string `json:"args,omitempty"`
}

// Key is a collision-free map key for diffing answer sets (the separator
// bytes cannot appear in rendered terms or constant names).
func (t Tuple) Key() string {
	return t.Term + "\x00" + strings.Join(t.Args, "\x01")
}

// String renders the tuple the way fdbq prints answers.
func (t Tuple) String() string {
	if t.Term == "" {
		return "(" + strings.Join(t.Args, ", ") + ")"
	}
	if len(t.Args) == 0 {
		return t.Term
	}
	return t.Term + " (" + strings.Join(t.Args, ", ") + ")"
}

// Render enumerates the ground answers to depth as Paths does and renders
// each, stopping after limit tuples (0 = no cap); truncated reports that
// one more was offered. It records an "enumerate" span on ctx's trace.
func (a *Answers) Render(ctx context.Context, depth, limit int) (tuples []Tuple, truncated bool, err error) {
	ctx, sp := obs.StartSpan(ctx, "enumerate")
	defer sp.End()
	var scratch [64]byte
	buf := scratch[:0]
	err = a.Paths(ctx, depth, func(path []symbols.FuncID, args []symbols.ConstID) bool {
		if limit > 0 && len(tuples) >= limit {
			truncated = true
			return false
		}
		var tu Tuple
		if a.spec.fn {
			buf = a.AppendPath(buf[:0], path)
			tu.Term = string(buf)
		}
		if len(args) > 0 {
			tu.Args = make([]string, len(args))
			for i, c := range args {
				tu.Args[i] = a.spec.names.ConstName(c)
			}
		}
		tuples = append(tuples, tu)
		return true
	})
	if err != nil {
		return nil, false, err
	}
	return tuples, truncated, nil
}

// EnumerateContext is Paths with each functional component interned as a
// term (term.None when there is none) in the handle's own universe, which
// CompactTermString renders. Only the benchmark harness in bench/ calls the
// two; ROADMAP item B2 (q) moves it to Paths and deletes them.
func (a *Answers) EnumerateContext(ctx context.Context, maxDepth int, yield func(ft term.Term, dataArgs []symbols.ConstID) bool) error {
	a.u = term.NewUniverse()
	return a.Paths(ctx, maxDepth, func(path []symbols.FuncID, args []symbols.ConstID) bool {
		ft := term.None
		if a.spec.fn {
			ft = a.u.ApplyString(term.Zero, path...)
		}
		return yield(ft, args)
	})
}

// CompactTermString renders a term EnumerateContext yielded, as AppendPath
// renders its path.
func (a *Answers) CompactTermString(t term.Term) string {
	return a.u.CompactString(t, a.spec.names)
}

// Dump renders the answer specification: the QUERY extension per
// representative (the incremental primary database Q(B)).
func (a *Answers) Dump() string {
	s := a.spec
	var b strings.Builder
	fmt.Fprintf(&b, "answer specification for %s\n", s.q.Format(s.names))
	var rep []byte // the representative's path in compact notation, then ", "
	for key := 0; key+1 < len(s.off); key++ {
		if s.fn && s.off[key] < s.off[key+1] {
			rep = a.AppendPath(rep[:0], s.tab.Path(int32(key)))
			if s.arity > 0 {
				rep = append(rep, ", "...)
			}
		}
		for i := s.off[key]; i < s.off[key+1]; i++ {
			b.WriteString("  QUERY(")
			b.Write(rep)
			for j, c := range s.tuple(i) {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(s.names.ConstName(c))
			}
			b.WriteString(")\n")
		}
	}
	return b.String()
}
