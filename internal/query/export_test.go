package query

import (
	"context"

	"funcdb/internal/ast"
	"funcdb/internal/engine"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// Incremental evaluates a uniform query against a specification nothing
// else is using (Theorem 5.1).
func Incremental(sp *specgraph.Spec, q *ast.Query) (*Answers, error) {
	s, err := Evaluate(context.Background(), sp, q)
	if err != nil {
		return nil, err
	}
	return s.Answers(), nil
}

// Recompute answers q, uniform or not, by the specification of prog enlarged
// by a QUERY rule, as Compile does; prog's table gains the QUERY predicate.
func Recompute(prog *ast.Program, q *ast.Query, engOpts engine.Options, specOpts specgraph.Options) (*Answers, error) {
	s, err := recompute(context.Background(), prog, q, engOpts, specOpts)
	if err != nil {
		return nil, err
	}
	return s.Answers(), nil
}

// The reference the production enumerator is differentially tested against:
// the exhaustive walk the pruned one replaced. Every term of every depth up
// to maxDepth is interned, level by level, in a universe of the walk's own,
// and each is run through the DFA from the root — alphabet^maxDepth terms
// whatever the answer looks like.

// EnumerateExhaustive yields what Paths must yield, in the same order: each
// functional component as a term of u, interned there (term.None when the
// answer has none).
func (a *Answers) EnumerateExhaustive(ctx context.Context, maxDepth int, yield func(u *term.Universe, ft term.Term, dataArgs []symbols.ConstID) bool) error {
	s := a.spec
	u := term.NewUniverse()
	if !s.fn {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := s.off[0]; i < s.off[1]; i++ {
			if !yield(u, term.None, s.tuple(i)) {
				return nil
			}
		}
		return nil
	}
	level := []term.Term{term.Zero}
	for d := 0; d <= maxDepth; d++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, t := range level {
			state, err := a.key(u.Symbols(t))
			if err != nil {
				return err
			}
			for i := s.off[state]; i < s.off[state+1]; i++ {
				if !yield(u, t, s.tuple(i)) {
					return nil
				}
			}
		}
		if d == maxDepth {
			break
		}
		var next []term.Term
		for _, t := range level {
			for _, f := range s.tab.Alphabet {
				next = append(next, u.Apply(f, t))
			}
		}
		level = next
	}
	return nil
}

// TuplesAt returns the data tuples whose functional component's path,
// innermost-first, leads to the same state as path.
func (a *Answers) TuplesAt(path []symbols.FuncID) [][]symbols.ConstID {
	state, err := a.key(path)
	if err != nil {
		return nil
	}
	var out [][]symbols.ConstID
	for i := a.spec.off[state]; i < a.spec.off[state+1]; i++ {
		out = append(out, a.spec.tuple(i))
	}
	return out
}

// LongestLivePath reports whether the answer set is finite — no cycle
// among the states an answer can be reached from, starting at the root —
// and, if so, the depth of its deepest answer (-1 for an empty answer).
// Purely non-functional answers are finite with depth 0.
func (a *Answers) LongestLivePath() (depth int, finite bool) {
	s := a.spec
	if !s.fn {
		if s.IsEmpty() {
			return -1, true
		}
		return 0, true
	}
	const (
		unseen = iota
		open
		done
	)
	mark := make([]uint8, s.tab.NumStates())
	longest := make([]int, s.tab.NumStates()) // deepest answer below a done state, -1 if none
	var visit func(st int32) bool
	visit = func(st int32) bool {
		mark[st] = open
		best := -1
		if s.off[st] < s.off[st+1] {
			best = 0
		}
		for _, to := range s.tab.Row(st) {
			if s.dist[to] == unreachable {
				continue
			}
			switch mark[to] {
			case open:
				return false
			case unseen:
				if !visit(to) {
					return false
				}
			}
			if longest[to]+1 > best {
				best = longest[to] + 1
			}
		}
		mark[st], longest[st] = done, best
		return true
	}
	if s.dist[specgraph.Root] == unreachable {
		return -1, true
	}
	if !visit(specgraph.Root) {
		return 0, false
	}
	return longest[specgraph.Root], true
}

// Names is the table the handle renders through.
func (a *Answers) Names() *symbols.Table { return a.spec.names }

// AlphabetSize and NumStates size the reference's work for a test.
func (a *Answers) AlphabetSize() int { return len(a.spec.tab.Alphabet) }
func (a *Answers) NumStates() int    { return a.spec.tab.NumStates() }
