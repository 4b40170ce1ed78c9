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

// Option is one per-query option for Ask, Answers and Plan execution, made
// by WithMethod, WithDepth, WithLimit or WithTrace. It is a value, not a
// closure: resolving a list of them (BuildOpts) reads each in place, so
// neither making options nor resolving them allocates.
type Option struct {
	set   optField
	n     int
	trace *obs.Trace
}

// optField names the member of Opts an Option sets.
type optField uint8

const (
	optMethod optField = iota + 1
	optDepth
	optLimit
	optTrace
)

// WithMethod selects the ground-membership decision procedure for one query:
// the graph walk (the default) or congruence closure against R — the
// paper's two equivalent specifications.
func WithMethod(m Method) Option { return Option{set: optMethod, n: int(m)} }

// WithDepth bounds the term depth of answer enumeration.
func WithDepth(d int) Option { return Option{set: optDepth, n: d} }

// WithLimit caps the number of answer tuples an enumerating caller renders.
func WithLimit(n int) Option { return Option{set: optLimit, n: n} }

// WithTrace records the query's evaluation spans on tr.
func WithTrace(tr *obs.Trace) Option { return Option{set: optTrace, trace: tr} }

// BuildOpts folds a list of options into an Opts value, a later option
// overriding an earlier one. Exposed so layered callers (registry, server)
// can resolve the options once, read the resolved Depth/Limit for their own
// enumeration step and execute with the rest (Plan.AnswersOpts).
func BuildOpts(opts ...Option) Opts {
	var o Opts
	for _, op := range opts {
		switch op.set {
		case optMethod:
			o.Method = Method(op.n)
		case optDepth:
			o.Depth = op.n
		case optLimit:
			o.Limit = op.n
		case optTrace:
			o.Trace = op.trace
		}
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
