package obs

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Per-query evaluation budgets ride the context the same way traces do, so
// the engine layers (specgraph, query) can enforce them without new
// plumbing through every call signature.

// ErrBudgetExceeded is the sentinel every exhausted work budget matches via
// errors.Is — the admission layer's typed "this query did too much work"
// condition, distinct from rate limiting (which rejects before any work).
var ErrBudgetExceeded = errors.New("work budget exceeded")

// BudgetError reports that one query exhausted one resource of its work
// budget. The BDD/FC line of work treats bounded derivation work as a
// tractability property; a BudgetError is that bound biting at runtime.
type BudgetError struct {
	// Resource names what ran out: "algoq_steps", "derivation_depth" or
	// "arena_bytes".
	Resource string
	// Max is the limit that was exceeded.
	Max int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("work budget exceeded: %s limit %d", e.Resource, e.Max)
}

// Is lets errors.Is(err, ErrBudgetExceeded) match.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// Budget carries one query's work limits plus its running usage. A nil
// *Budget is a no-op: every charge succeeds, so evaluation paths charge
// unconditionally and only budgeted requests pay the atomics. Limits <= 0
// are unlimited. One Budget must serve exactly one query (the usage
// counters are cumulative across charges, including a batch's queries when
// the server chooses to pool them).
type Budget struct {
	// MaxQSteps bounds Algorithm Q exploration steps (terms examined by
	// the Potential/Active breadth-first search).
	MaxQSteps int64
	// MaxDepth bounds the derivation depth a query's own waves may reach:
	// Algorithm Q checks it beyond the database's shared compile only, on
	// the enlarged program of a non-uniform query.
	MaxDepth int64
	// MaxBytes bounds the metered answer-arena footprint: an estimate of
	// the bytes the query forces the evaluator to materialize
	// (representatives, successor edges, answer tuples).
	MaxBytes int64

	qsteps atomic.Int64
	bytes  atomic.Int64
}

type budgetKey struct{}

// WithBudget attaches a per-query work budget to ctx. A nil budget (or one
// with no finite limit) leaves ctx unchanged.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	if b == nil || (b.MaxQSteps <= 0 && b.MaxDepth <= 0 && b.MaxBytes <= 0) {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom returns the work budget carried by ctx, or nil.
func BudgetFrom(ctx context.Context) *Budget {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// AddQSteps charges n Algorithm Q steps, failing once the total passes the
// limit.
func (b *Budget) AddQSteps(n int64) error {
	if b == nil || b.MaxQSteps <= 0 {
		return nil
	}
	if b.qsteps.Add(n) > b.MaxQSteps {
		return &BudgetError{Resource: "algoq_steps", Max: b.MaxQSteps}
	}
	return nil
}

// CheckDepth fails when a derivation wave at depth d would exceed the
// budget. Depth is a high-water mark, not a cumulative charge.
func (b *Budget) CheckDepth(d int64) error {
	if b == nil || b.MaxDepth <= 0 || d <= b.MaxDepth {
		return nil
	}
	return &BudgetError{Resource: "derivation_depth", Max: b.MaxDepth}
}

// AddBytes charges n metered arena bytes, failing once the total passes
// the limit.
func (b *Budget) AddBytes(n int64) error {
	if b == nil || b.MaxBytes <= 0 {
		return nil
	}
	if b.bytes.Add(n) > b.MaxBytes {
		return &BudgetError{Resource: "arena_bytes", Max: b.MaxBytes}
	}
	return nil
}
