package core

import (
	"context"

	"funcdb/internal/obs"
)

// Opts collects the per-query options of the Prepare/Execute API. The zero
// value means: the graph walk, no enumeration depth, no tuple limit, no trace.
type Opts struct {
	// Method selects the ground-membership decision procedure.
	Method Method
	// Depth caps the term depth of answer enumeration (0 = unlimited). It
	// is consumed by enumerating callers (registry, server) via BuildOpts;
	// the derivation-depth limit of evaluation is a separate concern, the
	// MaxDepth of the obs.Budget that ctx carries.
	Depth int
	// Limit caps the number of tuples an enumerating caller renders
	// (0 = no cap). The core evaluator itself builds the full finite
	// specification; Limit is consumed at enumeration time.
	Limit int
	// Trace attaches a span-recording trace to the evaluation.
	Trace *obs.Trace
}

// Option is a functional option for Ask, Answers and Plan execution.
type Option func(*Opts)

// WithMethod selects the ground-membership decision procedure for one query:
// the graph walk (the default) or congruence closure against R — the
// paper's two equivalent specifications.
func WithMethod(m Method) Option { return func(o *Opts) { o.Method = m } }

// WithDepth bounds the term depth of answer enumeration.
func WithDepth(d int) Option { return func(o *Opts) { o.Depth = d } }

// WithLimit caps the number of answer tuples an enumerating caller renders.
func WithLimit(n int) Option { return func(o *Opts) { o.Limit = n } }

// WithTrace records the query's evaluation spans on tr.
func WithTrace(tr *obs.Trace) Option { return func(o *Opts) { o.Trace = tr } }

// BuildOpts folds a list of options into an Opts value. Exposed so layered
// callers (registry, server) can both forward the options and read the
// resolved Depth/Limit for their own enumeration step.
func BuildOpts(opts ...Option) Opts {
	if len(opts) == 0 {
		// The early return keeps option-free asks allocation-free: o below
		// is heap-moved (it is passed to opaque option closures), and that
		// move must not sit on the zero-option hot path.
		return Opts{}
	}
	var o Opts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// apply attaches the context-carried options (currently the trace) to ctx.
// With a zero Opts it returns ctx unchanged and allocates nothing.
func (o *Opts) apply(ctx context.Context) context.Context {
	if o.Trace != nil {
		ctx = obs.WithTrace(ctx, o.Trace)
	}
	return ctx
}
