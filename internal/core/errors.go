package core

import (
	"context"
	"errors"

	"funcdb/internal/query"
)

// ErrCanceled reports an evaluation aborted by an expired context. Match it
// with errors.Is; the original context error (context.Canceled or
// context.DeadlineExceeded) stays reachable through the wrap chain, so
// callers can still distinguish client cancellation from a deadline.
var ErrCanceled = errors.New("core: query canceled")

// ErrUnsafeQuery reports a query whose free variables do not all occur in
// the body. It aliases the query package's sentinel so façade callers need
// only this package.
var ErrUnsafeQuery = query.ErrUnsafeQuery

// ErrNeedsRules reports a non-uniform query against a snapshot of a
// specification document (LoadSpec). By Theorem 5.1 a uniform query is
// answered from (B, T) alone; any other is answered from the specification
// of the program enlarged by a rule for the query, and a document keeps no
// rules to enlarge.
var ErrNeedsRules = errors.New("core: a non-uniform query needs the program's rules; a specification document answers uniform queries (Theorem 5.1)")

type canceledError struct{ cause error }

func (e *canceledError) Error() string { return "core: query canceled: " + e.cause.Error() }

func (e *canceledError) Unwrap() error { return e.cause }

func (e *canceledError) Is(target error) bool { return target == ErrCanceled }

// wrapCanceled tags context expiry errors with ErrCanceled and passes every
// other error through unchanged.
func wrapCanceled(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &canceledError{cause: err}
	}
	return err
}
