package api

import (
	"context"
	"log/slog"
	"net/http"
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
	// is off, unless the handler starts one for a client that asked.
	Trace *obs.Trace

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
}

type infoKey struct{}

// InfoFrom returns the request record Wrap attached to ctx, or nil.
func InfoFrom(ctx context.Context) *Info {
	in, _ := ctx.Value(infoKey{}).(*Info)
	return in
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
		in := &Info{Endpoint: endpoint, Start: time.Now(), Tenant: Tenant(r)}
		reqID := obs.NewRequestID()
		w.Header().Set(HeaderRequestID, reqID)
		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, in.Start.Add(timeout))
			defer cancel()
		}
		var root *obs.SpanHandle
		if p.Recorder != nil {
			tid, parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
			in.Trace = obs.NewTraceWith(tid)
			if parent != "" {
				in.Trace.SetRemoteParent(parent)
			}
			ctx = obs.WithTrace(ctx, in.Trace)
			if p.Span != "" {
				ctx, root = obs.StartSpan(ctx, p.Span)
			}
			w.Header().Set(HeaderTraceID, in.Trace.ID())
		}
		err := h(w, r.WithContext(context.WithValue(ctx, infoKey{}, in)))
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
		outcome := obs.OutcomeForStatus(status, code)
		if p.Recorder != nil && (outcome != obs.OutcomeOK || !Streaming(endpoint)) {
			p.Recorder.Offer(obs.TraceEntry{
				ID:          in.Trace.ID(),
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
		}
		level := slog.LevelDebug
		if e != nil {
			level = slog.LevelWarn
		}
		var logArgs []any
		if p.Log.Enabled(ctx, level) {
			logArgs = []any{
				"endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
				"request_id", reqID, "tenant", in.Tenant, "dur_ms", d.Milliseconds()}
			if in.Trace != nil {
				logArgs = append(logArgs, "trace_id", in.Trace.ID())
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
