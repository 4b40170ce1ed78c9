// Package obs is funcdb's observability layer: a lightweight span/trace
// facility, a Prometheus-text-exposition metrics registry, and cumulative
// engine counters. It has no dependencies outside the standard library and
// is designed so that the disabled paths cost almost nothing: tracing costs
// one context lookup per instrumentation site when no trace is attached,
// and the engine counter sink can be swapped for a nil no-op.
package obs

import (
	"context"
	"sync"
	"time"
)

// maxSpans bounds how many spans a single trace retains. A pathological
// query (thousands of fixpoint rounds) would otherwise balloon the response;
// spans past the cap are dropped and counted in Report.DroppedSpans.
const maxSpans = 512

// Span is one finished (or still-open) timed region of a trace. StartUS is
// the offset from the trace's start on the monotonic clock; Parent is the ID
// of the enclosing span, 0 for top-level spans.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// Trace collects the spans and counters of one request. All methods are safe
// for concurrent use: batch queries fan out to a worker pool, and every
// worker records into the same trace.
type Trace struct {
	id    string
	start time.Time

	mu           sync.Mutex
	spans        []Span
	nextID       int
	dropped      int
	counters     map[string]int64
	remoteParent string
	endUS        int64 // the trace's length once the recorder has it; -1 while it runs

	pooled bool // from AcquireTrace: Recorder.Offer gives it back when it drops its entry
}

// tracePool recycles the traces of requests whose recorder entries were
// dropped: the unremarkable majority, with the recorder on.
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// maxPooledSpans bounds the span storage a pooled trace keeps for its next
// request, so that one pathological trace does not pin its size on the pool.
const maxPooledSpans = 64

// AcquireTrace is NewTraceWith for a trace that will be offered to a
// Recorder: it comes from a pool, and Recorder.Offer gives it back when it
// drops the entry, so nothing may use it once offered. A kept entry keeps
// its trace, and with it the whole span tree.
func AcquireTrace(id string) *Trace {
	t := tracePool.Get().(*Trace)
	t.pooled = true
	t.begin(id)
	return t
}

// begin starts t as a fresh trace under id, or a new ID when id is invalid.
func (t *Trace) begin(id string) {
	if ValidTraceID(id) {
		t.id = id
	} else {
		t.id = NewTraceID()
	}
	t.start = time.Now()
	t.nextID = 1
	t.endUS = -1
}

// release hands a pooled trace back, its storage cleared.
func (t *Trace) release() {
	if !t.pooled {
		return
	}
	t.spans = t.spans[:0]
	if cap(t.spans) > maxPooledSpans {
		t.spans = nil
	}
	clear(t.counters)
	t.dropped = 0
	t.remoteParent = ""
	tracePool.Put(t)
}

// finish fixes the trace's length: a report made after it reads the trace
// as it stood when the request ended.
func (t *Trace) finish() {
	el := int64(t.Elapsed() / time.Microsecond)
	t.mu.Lock()
	if t.endUS < 0 {
		t.endUS = el
	}
	t.mu.Unlock()
}

// NewTrace starts a new trace with a fresh W3C-shaped ID and the current
// monotonic time as its origin. IDs come from the seeded per-process
// counter+PRNG in id.go, not crypto/rand — see the commentary there.
func NewTrace() *Trace {
	t := new(Trace)
	t.begin("")
	return t
}

// ID returns the trace's hex identifier.
func (t *Trace) ID() string { return t.id }

// Elapsed returns the time since the trace began, on the monotonic clock.
func (t *Trace) Elapsed() time.Duration { return time.Since(t.start) }

// Add increments a named trace counter. Zero deltas are dropped so callers
// can pass raw deltas unconditionally.
func (t *Trace) Add(name string, n int64) {
	if t == nil || n == 0 {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64, 8)
	}
	t.counters[name] += n
	t.mu.Unlock()
}

// SetMax raises a named trace counter to v if v is larger than its current
// value — used for high-water quantities such as derivation depth.
func (t *Trace) SetMax(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64, 8)
	}
	if v > t.counters[name] {
		t.counters[name] = v
	}
	t.mu.Unlock()
}

// SpanHandle ends a span started with StartSpan. The zero handle is valid
// and its End is a no-op, so call sites never need to check whether tracing
// is enabled. It is a value: opening a span allocates no handle.
type SpanHandle struct {
	t   *Trace
	idx int
}

// End records the span's duration. A no-op on the zero handle.
func (h SpanHandle) End() {
	t := h.t
	if t == nil {
		return
	}
	el := int64(t.Elapsed() / time.Microsecond)
	t.mu.Lock()
	t.spans[h.idx].DurUS = el - t.spans[h.idx].StartUS
	t.mu.Unlock()
}

// ScopeKey is the context key a request's *Scope is found under. A context
// type that carries a request's scope itself (the api pipeline's request
// context) answers it from its own Value method, so that one context value
// serves the whole request.
type ScopeKey struct{}

// Scope is what obs reads off a context: the request's trace, the span that
// encloses the code running under the context (0 at the trace's root), and
// the request's work budget. Any of them may be absent.
type Scope struct {
	Trace  *Trace
	Span   int
	Budget *Budget
}

// scopeOf returns the scope ctx carries, or nil.
func scopeOf(ctx context.Context) *Scope {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ScopeKey{}).(*Scope)
	return s
}

// scopeCtx is a context carrying a scope of its own: one allocation, where a
// context.WithValue of a boxed struct made two.
type scopeCtx struct {
	context.Context
	s Scope
}

func (c *scopeCtx) Value(key any) any {
	if _, ok := key.(ScopeKey); ok {
		return &c.s
	}
	return c.Context.Value(key)
}

// scopeOr returns ctx's scope by value, the zero scope when it has none.
func scopeOr(ctx context.Context) Scope {
	if s := scopeOf(ctx); s != nil {
		return *s
	}
	return Scope{}
}

// WithTrace attaches a trace to ctx, keeping ctx's budget. Spans started
// from the returned context are recorded as top-level spans of t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	s := scopeOr(ctx)
	s.Trace, s.Span = t, 0
	return &scopeCtx{ctx, s}
}

// FromContext returns the trace attached to ctx, or nil. This is the only
// cost tracing adds to an untraced request: one context value lookup per
// instrumentation site.
func FromContext(ctx context.Context) *Trace {
	if s := scopeOf(ctx); s != nil {
		return s.Trace
	}
	return nil
}

// StartSpan opens a named span under the current span of ctx's trace. When
// ctx carries no trace (the common case) it returns ctx unchanged and the
// zero handle, whose End is a no-op. The returned context makes the new span
// the parent of any spans started from it.
func StartSpan(ctx context.Context, name string) (context.Context, SpanHandle) {
	s := scopeOf(ctx)
	if s == nil || s.Trace == nil {
		return ctx, SpanHandle{}
	}
	h, id := s.Trace.startSpan(name, s.Span)
	if h.t == nil {
		return ctx, h // span cap reached; children attach to the old parent
	}
	child := *s
	child.Span = id
	return &scopeCtx{ctx, child}, h
}

// Add increments a counter on ctx's trace, if any.
func Add(ctx context.Context, name string, n int64) {
	FromContext(ctx).Add(name, n)
}

// SetMax raises a high-water counter on ctx's trace, if any.
func SetMax(ctx context.Context, name string, v int64) {
	FromContext(ctx).SetMax(name, v)
}

func (t *Trace) startSpan(name string, parent int) (SpanHandle, int) {
	start := int64(t.Elapsed() / time.Microsecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return SpanHandle{}, 0
	}
	id := t.nextID
	t.nextID++
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, StartUS: start, DurUS: -1})
	return SpanHandle{t: t, idx: len(t.spans) - 1}, id
}

// Report is the JSON shape of a finished trace, embedded in query responses
// under the "trace" key.
type Report struct {
	ID           string           `json:"id"`
	DurUS        int64            `json:"dur_us"`
	Spans        []Span           `json:"spans"`
	Counters     map[string]int64 `json:"counters,omitempty"`
	DroppedSpans int              `json:"dropped_spans,omitempty"`
	RemoteParent string           `json:"remote_parent,omitempty"`
}

// Report snapshots the trace. Spans still open are reported with the
// duration they have accumulated so far.
func (t *Trace) Report() *Report {
	if t == nil {
		return nil
	}
	el := int64(t.Elapsed() / time.Microsecond)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.endUS >= 0 {
		el = t.endUS
	}
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	for i := range spans {
		if spans[i].DurUS < 0 {
			spans[i].DurUS = el - spans[i].StartUS
		}
	}
	var counters map[string]int64
	if len(t.counters) > 0 {
		counters = make(map[string]int64, len(t.counters))
		for k, v := range t.counters {
			counters[k] = v
		}
	}
	return &Report{
		ID:           t.id,
		DurUS:        el,
		Spans:        spans,
		Counters:     counters,
		DroppedSpans: t.dropped,
		RemoteParent: t.remoteParent,
	}
}

// Open opens a named span under s's current span and makes it s's current
// span, where StartSpan would derive a context: for a scope its owner has
// not handed to any other goroutine yet, such as a request's before its
// handler runs.
func (s *Scope) Open(name string) SpanHandle {
	if s.Trace == nil {
		return SpanHandle{}
	}
	h, id := s.Trace.startSpan(name, s.Span)
	if h.t != nil {
		s.Span = id
	}
	return h
}

// SetBudget makes b the scope's work budget, as WithBudget would for a
// derived context; a budget that limits nothing is not attached.
func (s *Scope) SetBudget(b *Budget) {
	if b.bounded() {
		s.Budget = b
	}
}
