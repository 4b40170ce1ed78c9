package api

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/obs"
)

// Handler is the shape of every endpoint on both daemons: write the response
// and return nil, or write nothing and return the refusal — an *Error, or
// any other error for a 500 — for the pipeline to render.
type Handler func(w http.ResponseWriter, r *http.Request) error

// Info is what the pipeline knows about one request and what its handler
// tells it: the handler fills in what it resolves (database, query), and the
// pipeline turns the whole into the flight-recorder entry and the log line.
// Reach it with InfoFrom.
type Info struct {
	Endpoint string
	Start    time.Time
	Tenant   string
	// Trace is the request's always-on trace; nil when the flight recorder
	// is off, unless the handler starts one for a client that asked. With
	// the recorder on it is pooled: the pipeline offers it to the recorder
	// once the handler has returned, and nothing may hold it past that.
	Trace *obs.Trace
	// RequestID names the request in this process's log line and its
	// X-Request-Id: minted by Wrap, and replaced by a handler that relays
	// another daemon's response with that daemon's.
	RequestID string

	DB          string
	Query       string // as received; the recorder clips what it keeps
	Shape       string // Query's canonical form, where the daemon computes one
	Fingerprint string
	Keep        bool // the client asked for a trace: always retain the entry

	// Status and Code are set by a handler that relayed somebody else's
	// non-200 response and returned nil, so the entry is classified like the
	// origin's own.
	Status int
	Code   string

	scope *obs.Scope // the request context's own (SetBudget)
	hdr   [6]string  // response header values the request owns (SetHeader)
	nhdr  int
}

// SetHeader sets the response header key, in canonical form, to the one
// value v, as h.Set would, but the value's slice is a slot of the Info, so
// setting a header allocates nothing; past the slots it falls back to a
// slice of its own. Each slice has no spare capacity, so a later Add copies
// it rather than writing into the Info.
func (in *Info) SetHeader(h http.Header, key, v string) {
	if in.nhdr == len(in.hdr) {
		h[key] = []string{v}
		return
	}
	i := in.nhdr
	in.hdr[i] = v
	in.nhdr++
	h[key] = in.hdr[i : i+1 : i+1]
}

// SetBudget makes b the work budget the request's context carries
// (obs.BudgetFrom), without deriving a context: for the code around a
// handler, before the handler starts a span.
func (in *Info) SetBudget(b *obs.Budget) { in.scope.SetBudget(b) }

type infoKey struct{}

// InfoFrom returns the request record Wrap attached to ctx, or nil.
func InfoFrom(ctx context.Context) *Info {
	in, _ := ctx.Value(infoKey{}).(*Info)
	return in
}

// request is one request's context and its Info in one allocation: the one
// context value the pipeline adds. It answers InfoFrom and obs's scope (the
// trace, its current span and the work budget) itself, and holds the
// request's deadline without a timer: Deadline answers from the field, and
// the timer is armed (context.WithDeadline) only when something asks for
// Done — a stage that can block, or a context derived from this one, which
// then hangs off the timer's context and needs no goroutine to watch this
// one. A plan-cache text hit never asks.
type request struct {
	parent   context.Context
	info     Info
	scope    obs.Scope
	deadline time.Time // zero: the parent's deadline, if any, is the request's

	mu    sync.Mutex
	timed atomic.Pointer[timedCtx]
}

type timedCtx struct {
	ctx    context.Context
	cancel context.CancelFunc
}

func (c *request) Deadline() (time.Time, bool) {
	if !c.deadline.IsZero() {
		return c.deadline, true
	}
	return c.parent.Deadline()
}

func (c *request) Done() <-chan struct{} {
	if c.deadline.IsZero() {
		return c.parent.Done()
	}
	return c.arm().Done()
}

func (c *request) Err() error {
	if c.deadline.IsZero() {
		return c.parent.Err()
	}
	if t := c.timed.Load(); t != nil {
		return t.ctx.Err()
	}
	if err := c.parent.Err(); err != nil {
		return err
	}
	if !time.Now().Before(c.deadline) {
		return c.arm().Err()
	}
	return nil
}

func (c *request) Value(key any) any {
	switch key.(type) {
	case infoKey:
		return &c.info
	case obs.ScopeKey:
		return &c.scope
	}
	if t := c.timed.Load(); t != nil {
		return t.ctx.Value(key)
	}
	return c.parent.Value(key)
}

// arm returns the context whose timer ends the request at its deadline,
// starting it on first use.
func (c *request) arm() context.Context {
	if t := c.timed.Load(); t != nil {
		return t.ctx
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.timed.Load(); t != nil {
		return t.ctx
	}
	ctx, cancel := context.WithDeadline(c.parent, c.deadline)
	c.timed.Store(&timedCtx{ctx, cancel})
	return ctx
}

// end stops the timer, if it was armed, and cancels what hangs off it.
func (c *request) end() {
	if t := c.timed.Load(); t != nil {
		t.cancel()
	}
}

// Tenant extracts the tenant identity from a request.
func Tenant(r *http.Request) string {
	if k := r.Header.Get(HeaderAPIKey); k != "" {
		return k
	}
	return AnonymousTenant
}

// Streaming reports endpoints whose success path holds the connection open
// for minutes: their normal completions would all classify as slow, so the
// recorder keeps only their failures.
func Streaming(endpoint string) bool {
	return endpoint == "watch" || endpoint == "repl_wal" || endpoint == "repl_snapshot"
}

// Pipeline is what one daemon's endpoints have in common.
type Pipeline struct {
	// Recorder is the flight recorder every request is offered to; with one,
	// every request also runs under a trace. Nil disables both.
	Recorder *obs.Recorder
	// Log receives one line per request: debug on success, warn on failure.
	Log *slog.Logger
	// Node labels this process's recorder entries ("" on a shard).
	Node string
	// Span, when set, is opened around the handler as the trace's root span.
	Span string
}

// Wrap adapts h to an http.Handler. Every request gets a request ID, a
// context carrying its Info, a deadline when timeout is positive, and — with
// the recorder on — a trace that adopts the caller's traceparent, so one ID
// names the request in every process it crosses. A returned error is
// rendered as the envelope; the finished request is offered to the recorder
// and logged.
func (p *Pipeline) Wrap(endpoint string, timeout time.Duration, h Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := &request{parent: r.Context()}
		defer c.end()
		in := &c.info
		in.Endpoint, in.Start, in.Tenant, in.scope = endpoint, time.Now(), Tenant(r), &c.scope
		if timeout > 0 {
			d := in.Start.Add(timeout)
			if pd, ok := c.parent.Deadline(); !ok || d.Before(pd) {
				c.deadline = d
			}
		}
		hdr := w.Header()
		in.RequestID = obs.NewRequestID()
		in.SetHeader(hdr, HeaderRequestID, in.RequestID)
		var root obs.SpanHandle
		if p.Recorder != nil {
			tid, parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
			in.Trace = obs.AcquireTrace(tid)
			if parent != "" {
				in.Trace.SetRemoteParent(parent)
			}
			c.scope.Trace = in.Trace
			if p.Span != "" {
				root = c.scope.Open(p.Span)
			}
			in.SetHeader(hdr, HeaderTraceID, in.Trace.ID())
		}
		err := h(w, r.WithContext(c))
		root.End()
		d := time.Since(in.Start)

		status, code := http.StatusOK, ""
		var e *Error
		if err != nil {
			e = AsError(err)
			status, code = e.Status, e.Code
		} else if in.Status != 0 {
			status, code = in.Status, in.Code
		}
		traceID := ""
		if in.Trace != nil {
			traceID = in.Trace.ID()
		}
		outcome := obs.OutcomeForStatus(status, code)
		if p.Recorder != nil && (outcome != obs.OutcomeOK || !Streaming(endpoint)) {
			p.Recorder.Offer(obs.TraceEntry{
				ID:          traceID,
				TimeUnixMS:  in.Start.UnixMilli(),
				DurUS:       d.Microseconds(),
				Endpoint:    endpoint,
				DB:          in.DB,
				Tenant:      in.Tenant,
				Fingerprint: in.Fingerprint,
				Query:       in.Query,
				Status:      status,
				Code:        code,
				Outcome:     outcome,
				Node:        p.Node,
				Keep:        in.Keep,
			}, in.Trace)
			// The recorder has the trace now, and may have handed it back.
			in.Trace, c.scope.Trace = nil, nil
		}
		level := slog.LevelDebug
		if e != nil {
			level = slog.LevelWarn
		}
		var logArgs []any
		if p.Log.Enabled(c, level) {
			logArgs = []any{
				"endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
				"request_id", in.RequestID, "tenant", in.Tenant, "dur_ms", d.Milliseconds()}
			if traceID != "" {
				logArgs = append(logArgs, "trace_id", traceID)
			}
			if in.Fingerprint != "" {
				logArgs = append(logArgs, "fingerprint", in.Fingerprint)
			}
			if via := r.Header.Get(HeaderRouter); via != "" {
				// The shard-map version the router routed under: what you
				// need when debugging a misrouted request after a reshard.
				logArgs = append(logArgs, "router", via)
			}
		}
		if e == nil {
			if logArgs != nil {
				p.Log.Debug("request", logArgs...)
			}
			return
		}
		WriteError(w, e)
		if logArgs != nil {
			p.Log.Warn("request failed", append(logArgs, "status", status, "code", code, "error", e.Message)...)
		}
	}
}
