// Package server exposes a registry of compiled specifications over a JSON
// HTTP API — the daemon face of the paper's "rules may be forgotten" claim:
// every request is answered by a finite relational specification, with a
// bounded LRU in front keyed on (database version, canonical query) so hot
// reloads self-invalidate without cache scans.
//
// Everything is stdlib: net/http with Go 1.22 method patterns, a
// container/list LRU, atomic counters with expvar-style text exposition at
// /metrics.
//
// Requests meet their deadline in one of two ways. A query (ask, answers,
// batch) takes it as a context deadline, which evaluation polls, plus a read
// deadline on the connection while its body arrives; it reads that body once
// into a pooled buffer (decode.go) and answers 504 deadline_exceeded
// wherever the time went. Uploads, facts and the admin endpoints run under
// http.TimeoutHandler (503 when it fires), because a compile cannot be
// canceled yet; PUT bounds its upload with http.MaxBytesReader. Streams
// (watch, replication) and the readiness probe have no deadline.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"funcdb/internal/admission"
	"funcdb/internal/core"
	"funcdb/internal/obs"
	"funcdb/internal/parser"
	"funcdb/internal/query"
	"funcdb/internal/registry"
	"funcdb/internal/store"
	"funcdb/internal/watch"
)

// StatusClientClosedRequest is the nonstandard (nginx) status for a request
// whose client went away before the answer was computed.
const StatusClientClosedRequest = 499

// Config tunes the server; zero values pick the documented defaults.
type Config struct {
	// CacheSize bounds the answer LRU (entries). Negative disables
	// caching; zero means DefaultCacheSize.
	CacheSize int
	// Timeout bounds request handling end to end; zero means
	// DefaultTimeout, negative disables the deadline.
	Timeout time.Duration
	// MaxBodyBytes bounds uploaded documents and query bodies; zero means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxDepth caps the depth accepted by /answers; zero means
	// DefaultMaxDepth.
	MaxDepth int
	// MaxTuples caps enumeration when the request sends no limit (or a
	// larger one); zero means DefaultMaxTuples.
	MaxTuples int
	// MaxBatchQueries caps the number of queries one /batch request may
	// carry; zero means DefaultMaxBatchQueries.
	MaxBatchQueries int
	// BatchWorkers bounds the worker pool evaluating one /batch request;
	// zero means DefaultBatchWorkers.
	BatchWorkers int
	// ExtraGauges, when set, contributes additional name→value gauges to
	// /metrics — the daemon plugs the durability store's gauges in here.
	ExtraGauges func() map[string]int64
	// Repl, when set, exposes the replication endpoints — GET
	// /v1/repl/snapshot and GET /v1/repl/wal — backed by this store, so
	// replicas can bootstrap and tail the journal.
	Repl *store.Store
	// ReadOnly rejects every mutating endpoint with 403 and the machine
	// code read_only_replica; replica daemons set it so clients fail over
	// to the primary for writes.
	ReadOnly bool
	// Ready, when set, gates GET /readyz: a non-nil error renders 503
	// with the error's message. /healthz stays liveness-only regardless.
	Ready func() error
	// ReplHeartbeat is how often an idle /v1/repl/wal stream emits a
	// heartbeat frame; zero means DefaultReplHeartbeat.
	ReplHeartbeat time.Duration
	// Watch serves POST /v1/db/{name}/watch live-query streams. When nil,
	// New builds a hub over the registry and installs its Notify as the
	// registry's notifier (a deliberate side effect: the hub is useless
	// without version bumps). Daemons that journal pass a pre-wired hub so
	// frames carry real LSNs. Watches are served even when ReadOnly is set
	// — replicas push deltas exactly like primaries.
	Watch *watch.Hub
	// WatchHeartbeat is how often an idle watch stream emits a heartbeat
	// frame; zero means DefaultWatchHeartbeat.
	WatchHeartbeat time.Duration
	// Logger receives structured request and slow-query logs; nil means
	// slog.Default(). Per-request lines carry the request ID (and trace ID
	// when the client asked for a trace) at debug level; errors log at
	// warn.
	Logger *slog.Logger
	// SlowQuery, when positive, logs any query evaluation that takes at
	// least this long at warn level, with the database, query text and
	// trace ID. Zero disables the slow-query log.
	SlowQuery time.Duration
	// MaxDerivationDepth, when positive, bounds the derivation depth any
	// single query may force Algorithm Q to explore. A query that needs a
	// deeper wave fails fast with 422 depth_budget_exceeded instead of
	// burning its full wall-clock deadline. Zero means unlimited.
	MaxDerivationDepth int
	// Admission, when set, gates the query endpoints through the
	// multi-tenant admission controller: the tenant (X-Api-Key header) is
	// charged the endpoint's cost class against its token bucket, the
	// request waits in the bounded admission queue for an evaluation slot,
	// and evaluation runs under the tenant's per-query work budget. Sheds
	// render as 429 rate_limited / 503 overloaded with Retry-After; budget
	// kills as 422 budget_exceeded.
	Admission *admission.Controller
	// Recorder, when set, is the always-on flight recorder: every request
	// runs under a span trace (adopting an incoming traceparent header) and
	// is offered for tail-based retention, served at GET /debug/traces.
	// When nil, New builds one sized by TraceBuffer — daemons that also
	// feed replica traces into the recorder pass a pre-built one.
	Recorder *obs.Recorder
	// TraceBuffer sizes the flight recorder built when Recorder is nil
	// (entries). Negative disables the recorder — and with it always-on
	// tracing, restoring the opt-in-only behavior the overhead benchmark
	// measures against. Zero means obs.DefaultTraceBuffer.
	TraceBuffer int
	// TraceSample keeps one in N unremarkable requests in the flight
	// recorder; zero means obs.DefaultTraceSample.
	TraceSample int
	// StatsTopK caps the per-fingerprint query-stats table (and the
	// cardinality of the funcdbd_query_* metric series) per process; zero
	// means DefaultStatsTopK.
	StatsTopK int
	// Program names this binary in the funcdbd_build_info gauge; zero
	// means "fdbd".
	Program string
}

// HeaderAPIKey is the request header carrying the tenant's API key. The
// router forwards it unchanged, so per-tenant policy holds across shards.
const HeaderAPIKey = "X-Api-Key"

// AnonymousTenant is the tenant name requests without an API key fall
// under; its limits come from the admission config's default block.
const AnonymousTenant = "anonymous"

// tenantFrom extracts the tenant identity from a request.
func tenantFrom(r *http.Request) string {
	if k := r.Header.Get(HeaderAPIKey); k != "" {
		return k
	}
	return AnonymousTenant
}

// endpointCost is the admission cost class charged per request. Weights
// reflect worst-case evaluation work: an /ask is one cached verdict, an
// /answers enumerates, a /batch carries many queries, a watch holds a
// stream open. Health, readiness, metrics, and replication endpoints are
// exempt — shedding those would blind operators exactly when admission is
// doing its job.
var endpointCost = map[string]int{
	"ask":     1,
	"explain": 1,
	"dbs":     1,
	"db":      1,
	"delete":  1,
	"facts":   2,
	"export":  2,
	"put":     4,
	"answers": 4,
	"watch":   4,
	"batch":   8,
}

// Defaults for Config's zero values.
const (
	DefaultCacheSize       = 1024
	DefaultTimeout         = 10 * time.Second
	DefaultMaxBodyBytes    = 4 << 20
	DefaultMaxDepth        = 64
	DefaultMaxTuples       = 10_000
	DefaultMaxBatchQueries = 256
	DefaultBatchWorkers    = 4
	DefaultReplHeartbeat   = 3 * time.Second
	DefaultWatchHeartbeat  = 3 * time.Second
)

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = DefaultMaxDepth
	}
	if c.MaxTuples == 0 {
		c.MaxTuples = DefaultMaxTuples
	}
	if c.MaxBatchQueries == 0 {
		c.MaxBatchQueries = DefaultMaxBatchQueries
	}
	if c.BatchWorkers == 0 {
		c.BatchWorkers = DefaultBatchWorkers
	}
	if c.ReplHeartbeat == 0 {
		c.ReplHeartbeat = DefaultReplHeartbeat
	}
	if c.WatchHeartbeat == 0 {
		c.WatchHeartbeat = DefaultWatchHeartbeat
	}
	return c
}

// Server serves a registry over HTTP. Create with New, mount Handler.
type Server struct {
	reg     *registry.Registry
	cfg     Config
	cache   *answerCache
	met     *metrics
	log     *slog.Logger
	handler http.Handler
	rec     *obs.Recorder
	stats   *queryStats

	// slow, when set, runs at the start of ask handling; tests use it to
	// hold the request until its deadline deterministically.
	slow func(ctx context.Context)
}

// New wires a server around reg.
func New(reg *registry.Registry, cfg Config) *Server {
	s := &Server{
		reg: reg,
		cfg: cfg.withDefaults(),
		met: newMetrics("ask", "answers", "batch", "explain", "export", "dbs", "db", "put", "delete",
			"facts", "healthz", "readyz", "metrics", "repl_snapshot", "repl_wal", "repl_lsn", "watch",
			"stats", "traces"),
	}
	s.log = s.cfg.Logger
	if s.log == nil {
		s.log = slog.Default()
	}
	s.cache = newAnswerCache(s.cfg.CacheSize)
	s.rec = s.cfg.Recorder
	if s.rec == nil && s.cfg.TraceBuffer >= 0 {
		slow := s.cfg.SlowQuery
		if slow <= 0 {
			slow = obs.DefaultSlowTrace
		}
		s.rec = obs.NewRecorder(s.cfg.TraceBuffer, slow, s.cfg.TraceSample)
	}
	s.rec.Instrument(s.met.reg, "funcdbd_")
	s.stats = newQueryStats(s.met.reg, s.cfg.StatsTopK)
	program := s.cfg.Program
	if program == "" {
		program = "fdbd"
	}
	obs.RegisterBuildInfo(s.met.reg, program, "")

	// Point-in-time gauges and scrape-time sources, all rendered by the one
	// obs.Registry: catalog size, cache occupancy, the durability store's
	// and replica's gauges (ExtraGauges), and the engine's cumulative
	// counters.
	s.met.reg.GaugeFunc("funcdbd_databases", "Databases in the catalog.",
		func() float64 { return float64(s.reg.Len()) })
	s.met.reg.GaugeFunc("funcdbd_cache_entries", "Entries in the answer cache.",
		func() float64 { return float64(s.cache.len()) })
	if s.cfg.ExtraGauges != nil {
		s.met.reg.Source("funcdbd_", "gauge",
			"Store or replication gauge contributed by the daemon.", s.cfg.ExtraGauges)
	}
	s.met.reg.Source("funcdb_engine_", "counter",
		"Cumulative engine work counter.", func() map[string]int64 {
			return obs.EngineSink().Counters()
		})
	s.met.reg.GaugeFunc("funcdb_engine_max_derivation_depth",
		"High-water derivation depth reached by any query.",
		func() float64 { return float64(obs.EngineSink().MaxDepth()) })

	if s.cfg.Watch == nil {
		wopts := watch.Options{Reg: reg}
		if s.cfg.Admission != nil {
			// The per-tenant watch cap follows the admission policy file.
			// Daemons passing a pre-wired hub wire this themselves.
			wopts.TenantCap = s.cfg.Admission.WatchCap
		}
		s.cfg.Watch = watch.NewHub(wopts)
		reg.SetNotifier(s.cfg.Watch.Notify)
	}
	s.cfg.Watch.Instrument(s.met.reg)
	if s.cfg.Admission != nil {
		s.cfg.Admission.Instrument(s.met.reg)
	}

	// One mux, three ways to treat the deadline. query endpoints evaluate
	// under a context deadline that instrument sets (evaluation polls it).
	// wrapped endpoints run under TimeoutHandler, which costs a goroutine, a
	// timer and a write buffer per request and cannot flush, but is the only
	// bound on a compile that does not poll. direct endpoints have none:
	// streams are long-lived by design, and a readiness probe must not
	// compete with the request deadline during recovery.
	type handler = func(http.ResponseWriter, *http.Request) error
	mux := http.NewServeMux()
	query := func(pattern, endpoint string, h handler) {
		mux.Handle(pattern, s.instrument(endpoint, s.cfg.Timeout, h))
	}
	direct := func(pattern, endpoint string, h handler) {
		mux.Handle(pattern, s.instrument(endpoint, 0, h))
	}
	wrapped := func(pattern, endpoint string, h handler) {
		var hh http.Handler = s.instrument(endpoint, 0, h)
		if s.cfg.Timeout > 0 {
			hh = http.TimeoutHandler(hh, s.cfg.Timeout,
				`{"error":{"code":"deadline_exceeded","message":"request timed out"}}`)
		}
		mux.Handle(pattern, hh)
	}
	wrapped("GET /healthz", "healthz", s.handleHealthz)
	wrapped("GET /metrics", "metrics", s.handleMetrics)
	wrapped("GET /v1/dbs", "dbs", s.handleList)
	wrapped("GET /v1/db/{name}", "db", s.handleInfo)
	wrapped("PUT /v1/db/{name}", "put", s.handlePut)
	wrapped("DELETE /v1/db/{name}", "delete", s.handleDelete)
	wrapped("POST /v1/db/{name}/facts", "facts", s.handleFacts)
	wrapped("GET /v1/db/{name}/explain", "explain", s.handleExplain)
	wrapped("GET /v1/db/{name}/export", "export", s.handleExport)
	wrapped("GET /v1/db/{name}/stats", "stats", s.handleStats)
	if s.rec != nil {
		wrapped("GET /debug/traces", "traces", s.handleTraceList)
		wrapped("GET /debug/traces/{id}", "traces", s.handleTraceGet)
	}
	query("POST /v1/db/{name}/ask", "ask", s.handleAsk)
	query("POST /v1/db/{name}/answers", "answers", s.handleAnswers)
	query("POST /v1/db/{name}/batch", "batch", s.handleBatch)
	direct("POST /v1/db/{name}/watch", "watch", s.handleWatch)
	direct("GET /readyz", "readyz", s.handleReadyz)
	if s.cfg.Repl != nil {
		direct("GET /v1/repl/snapshot", "repl_snapshot", s.handleReplSnapshot)
		direct("GET /v1/repl/wal", "repl_wal", s.handleReplWAL)
		direct("GET /v1/repl/lsn", "repl_lsn", s.handleReplLSN)
	}
	s.handler = mux
	return s
}

// Handler returns the fully wired handler (deadlines included); mount it on
// an http.Server or httptest.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// apiError carries an HTTP status alongside the message sent to the client.
type apiError struct {
	status     int
	code       string // machine-readable code; codeForStatus(status) when empty
	msg        string
	retryAfter int // seconds; > 0 emits a Retry-After header
}

func (e *apiError) Error() string { return e.msg }

// withRetryAfter marks the error as transient: instrument adds a
// Retry-After header so clients back off instead of hammering.
func (e *apiError) withRetryAfter(seconds int) *apiError {
	e.retryAfter = seconds
	return e
}

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// errc is errf with an explicit machine-readable code, for statuses whose
// default code is too generic (403 read_only_replica, 410 compacted).
func errc(status int, code, format string, args ...any) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// errorBody is the single JSON error envelope every endpoint renders:
// {"error":{"code":"...","message":"..."}}.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// classify maps an error to its HTTP status and machine-readable code,
// using the typed errors of the evaluation stack.
func classify(err error) (int, errorBody) {
	var ae *apiError
	var mbe *http.MaxBytesError
	var pe *parser.ParseError
	var shed *admission.ShedError
	switch {
	case errors.As(err, &ae):
		code := ae.code
		if code == "" {
			code = codeForStatus(ae.status)
		}
		return ae.status, errorBody{Code: code, Message: ae.msg}
	case errors.As(err, &shed):
		status := http.StatusTooManyRequests
		if shed.Code == admission.CodeOverloaded {
			status = http.StatusServiceUnavailable
		}
		return status, errorBody{Code: shed.Code, Message: shed.Error()}
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge,
			errorBody{Code: "body_too_large", Message: fmt.Sprintf("body exceeds %d bytes", mbe.Limit)}
	case errors.Is(err, registry.ErrUnknownDatabase):
		return http.StatusNotFound, errorBody{Code: "not_found", Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded):
		// One answer for a query that ran out of time, wherever it was spent:
		// in evaluation (wrapped in core.ErrCanceled), waiting for admission
		// (bare), or waiting for the rest of its body (the read deadline).
		return http.StatusGatewayTimeout, errorBody{Code: "deadline_exceeded", Message: err.Error()}
	case errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, errorBody{Code: "canceled", Message: err.Error()}
	case errors.As(err, &pe):
		return http.StatusBadRequest, errorBody{Code: "parse_error", Message: err.Error()}
	case errors.Is(err, query.ErrUnsafeQuery):
		return http.StatusBadRequest, errorBody{Code: "unsafe_query", Message: err.Error()}
	case errors.As(err, new(*obs.DepthBudgetError)):
		return http.StatusUnprocessableEntity, errorBody{Code: "depth_budget_exceeded", Message: err.Error()}
	case errors.Is(err, obs.ErrBudgetExceeded):
		// Any other exhausted per-query work budget (Algorithm Q steps,
		// tenant depth, arena bytes): the query died by policy, not the node.
		return http.StatusUnprocessableEntity, errorBody{Code: "budget_exceeded", Message: err.Error()}
	}
	return http.StatusInternalServerError, errorBody{Code: "internal", Message: err.Error()}
}

func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "body_too_large"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case StatusClientClosedRequest:
		return "canceled"
	}
	return "internal"
}

// queryError passes the evaluation stack's typed errors through for
// classify to map, and treats everything else as the query's fault (400).
// Running out of time is not: enumeration reports the context's error bare.
func queryError(err error) error {
	var pe *parser.ParseError
	if errors.Is(err, core.ErrCanceled) || errors.Is(err, registry.ErrUnknownDatabase) ||
		errors.Is(err, query.ErrUnsafeQuery) || errors.As(err, &pe) ||
		errors.Is(err, obs.ErrBudgetExceeded) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	return errf(http.StatusBadRequest, "%v", err)
}

// reqInfo is the per-request record threaded through the context: the
// always-on trace (when the flight recorder is enabled), the tenant, and the
// database/query/fingerprint the handler resolves — everything the recorder
// entry, the per-fingerprint stats row and the enriched log lines need.
type reqInfo struct {
	endpoint string
	tenant   string
	trace    *obs.Trace

	db          string
	query       string // as received; clipped only if recorded or logged
	shape       string
	fingerprint string
	wantTrace   bool // client sent "trace":true — force recorder retention
}

type reqInfoKey struct{}

func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

func (ri *reqInfo) setDB(db string) {
	if ri != nil {
		ri.db = db
	}
}

// setQuery records what the request asked, as resolved by prepare. Nothing
// is derived from the text here: this runs on every request.
func (ri *reqInfo) setQuery(p *prepared) {
	if ri != nil {
		ri.query, ri.shape, ri.fingerprint = p.query, p.shape, p.fingerprint
	}
}

// streamingEndpoint reports endpoints whose success path holds the
// connection open for minutes; their normal completions would all classify
// as "slow", so the recorder only keeps their failures.
func streamingEndpoint(endpoint string) bool {
	return endpoint == "watch" || endpoint == "repl_wal" || endpoint == "repl_snapshot"
}

// instrument adapts a handler returning an error into an http.HandlerFunc,
// recording request counts, error counts and latency for the endpoint,
// rendering errors in the {"error":{"code","message"}} envelope, offering
// the request to the flight recorder, feeding the per-fingerprint stats
// table, and emitting one structured log line per request (debug on
// success, warn on failure) tagged with request, tenant and trace IDs. A
// positive timeout becomes the deadline of the request's context.
func (s *Server) instrument(endpoint string, timeout time.Duration, h func(w http.ResponseWriter, r *http.Request) error) http.HandlerFunc {
	em := s.met.endpoint(endpoint)
	cost, gated := endpointCost[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := obs.NewRequestID()
		w.Header().Set("X-Request-Id", reqID)
		ri := &reqInfo{endpoint: endpoint, tenant: tenantFrom(r)}
		ctx := r.Context()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, start.Add(timeout))
			defer cancel()
		}
		if s.rec != nil {
			// Always-on tracing: adopt the caller's trace ID when the request
			// carries a traceparent header, so the router's, this shard's and
			// a replica's recorder entries for one request share one ID.
			tid, parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
			tr := obs.NewTraceWith(tid)
			if parent != "" {
				tr.SetRemoteParent(parent)
			}
			ri.trace = tr
			ctx = obs.WithTrace(ctx, tr)
			w.Header().Set("X-Trace-Id", tr.ID())
		}
		r = r.WithContext(context.WithValue(ctx, reqInfoKey{}, ri))
		var err error
		if adm := s.cfg.Admission; adm != nil && gated {
			if endpoint == "watch" {
				// A watch is long-lived: charge the bucket only. Its
				// concurrency is bounded by the hub's caps, so it must not
				// pin an evaluation slot for the stream's lifetime.
				err = adm.AdmitRate(ri.tenant, cost)
			} else {
				var release func()
				release, err = adm.Admit(r.Context(), ri.tenant, cost)
				if release != nil {
					defer release()
				}
			}
		}
		if err == nil {
			err = h(w, r)
		}
		d := time.Since(start)
		em.observe(d, err != nil)
		status := http.StatusOK
		var body errorBody
		if err != nil {
			status, body = classify(err)
		}
		if s.stats != nil && ri.fingerprint != "" {
			s.stats.observe(ri.db, ri.fingerprint, ri.shape, d, err != nil,
				ri.trace.Counter("derivation_depth"), ri.trace.Counter("algoq_steps"))
		}
		outcome := obs.OutcomeForStatus(status, body.Code)
		if s.rec != nil && (outcome != obs.OutcomeOK || !streamingEndpoint(endpoint)) {
			s.rec.Offer(obs.TraceEntry{
				ID:          ri.trace.ID(),
				TimeUnixMS:  start.UnixMilli(),
				DurUS:       d.Microseconds(),
				Endpoint:    endpoint,
				DB:          ri.db,
				Tenant:      ri.tenant,
				Fingerprint: ri.fingerprint,
				Query:       ri.query,
				Status:      status,
				Code:        body.Code,
				Outcome:     outcome,
				Keep:        ri.wantTrace,
			}, ri.trace)
		}
		level := slog.LevelDebug
		if err != nil {
			level = slog.LevelWarn
		}
		var logArgs []any
		if s.log.Enabled(ctx, level) {
			logArgs = []any{
				"endpoint", endpoint, "method", r.Method, "path", r.URL.Path,
				"request_id", reqID, "tenant", ri.tenant, "dur_ms", d.Milliseconds()}
			if ri.trace != nil {
				logArgs = append(logArgs, "trace_id", ri.trace.ID())
			}
			if ri.fingerprint != "" {
				logArgs = append(logArgs, "fingerprint", ri.fingerprint)
			}
			if via := r.Header.Get("X-Funcdb-Router"); via != "" {
				// Forwarded by an fdbrouter; the value is the shard-map
				// version the router routed under, which is what you need
				// when debugging a misrouted request after a reshard.
				logArgs = append(logArgs, "router", via)
			}
		}
		if err == nil {
			if logArgs != nil {
				s.log.Debug("request", logArgs...)
			}
			return
		}
		var ae *apiError
		var shed *admission.ShedError
		switch {
		case errors.As(err, &ae) && ae.retryAfter > 0:
			w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
		case errors.As(err, &shed):
			secs := int(shed.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		if body.Code == "budget_exceeded" || body.Code == "depth_budget_exceeded" {
			s.cfg.Admission.RecordBudgetKill()
		}
		writeJSON(w, status, map[string]errorBody{"error": body})
		if logArgs != nil {
			logArgs = append(logArgs, "status", status, "code", body.Code, "error", body.Message)
			s.log.Warn("request failed", logArgs...)
		}
	}
}

// logSlow emits the slow-query log line when evaluation of one query took at
// least Config.SlowQuery, tagged with tenant, fingerprint and trace ID so it
// joins against flight-recorder entries. tr may be nil; ri fills the gaps.
func (s *Server) logSlow(ri *reqInfo, endpoint, db, q string, d time.Duration, tr *obs.Trace) {
	if s.cfg.SlowQuery <= 0 || d < s.cfg.SlowQuery {
		return
	}
	args := []any{"endpoint", endpoint, "db", db, "query", obs.ClipQuery(q), "dur_ms", d.Milliseconds()}
	if tr == nil && ri != nil {
		tr = ri.trace
	}
	if tr != nil {
		args = append(args, "trace_id", tr.ID())
	}
	if ri != nil {
		args = append(args, "tenant", ri.tenant)
		if ri.fingerprint != "" {
			args = append(args, "fingerprint", ri.fingerprint)
		}
	}
	s.log.Warn("slow query", args...)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// entry resolves the {name} path value against the registry.
func (s *Server) entry(r *http.Request) (*registry.Entry, error) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		return nil, errf(http.StatusNotFound, "no database named %q", name)
	}
	return e, nil
}

// normalizeQuery collapses whitespace so trivially different spellings of
// one query share a cache slot.
func normalizeQuery(q string) string { return strings.Join(strings.Fields(q), " ") }

// prepared is one query of a request, resolved against its entry exactly
// once: a program entry's query is compiled (or found in the plan cache) by
// a single plan lookup, and that plan both names the response-cache slot —
// its canonical shape, so α-variants and respellings of one query share a
// slot — and is what the request executes on a cache miss, against the same
// snapshot. Keying on shape is safe because answers are positional
// (AnswerTuple carries no variable names) and the key already includes the
// version. Spec entries and unparsable queries have no plan and key on the
// whitespace-normalized text.
type prepared struct {
	e           *registry.Entry
	query       string
	plan        *core.Plan // nil for a spec entry, or when err is set
	err         error      // the query does not parse or compile
	shape       string     // the answer-cache key component
	fingerprint string     // the shape's short hash: the plan's, computed at compile
}

// prepare resolves q against snap when the caller pinned one (a batch), and
// against e's current snapshot otherwise.
func prepare(ctx context.Context, e *registry.Entry, snap *core.Snapshot, q string) prepared {
	p := prepared{e: e, query: q}
	switch {
	case e.Kind != registry.KindProgram:
	case snap != nil:
		p.plan, p.err = snap.Prepare(ctx, q)
	default:
		p.plan, p.err = e.Prepare(ctx, q)
	}
	if p.plan != nil {
		p.shape, p.fingerprint = p.plan.Shape(), p.plan.Fingerprint()
	} else {
		p.shape = normalizeQuery(q)
		p.fingerprint = obs.Fingerprint(p.shape)
	}
	return p
}

func (p *prepared) ask(ctx context.Context, opts ...core.Option) (bool, error) {
	switch {
	case p.err != nil:
		return false, p.err
	case p.plan != nil:
		return p.plan.Ask(ctx, opts...)
	}
	return p.e.Ask(ctx, p.query, opts...)
}

func (p *prepared) answers(ctx context.Context, opts ...core.Option) ([]registry.AnswerTuple, bool, error) {
	switch {
	case p.err != nil:
		return nil, false, p.err
	case p.plan != nil:
		return registry.PlanAnswers(ctx, p.plan, opts...)
	}
	return p.e.Answers(ctx, p.query, opts...)
}

// cachePut stores v under key only while e is still the current version of
// its database. ExtendFacts mutates the underlying database in place before
// bumping the version, so an evaluation that raced the bump may already
// reflect the new facts — caching that under the old version's key would
// freeze a cross-version answer into a slot readers trust to be exactly
// as-of-version. Dropping the put is always safe: the next same-key request
// just recomputes.
func (s *Server) cachePut(e *registry.Entry, key cacheKey, v any) {
	if cur, ok := s.reg.Get(e.Name); !ok || cur.Version != e.Version {
		return
	}
	s.cache.put(key, v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	// Liveness can only fail if the process is wired wrong; when it does,
	// the failure still renders as the standard {"error":{...}} envelope
	// (via instrument), like every other endpoint.
	if s.reg == nil {
		return errc(http.StatusServiceUnavailable, "not_live", "server has no registry")
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "databases": s.reg.Len()})
	return nil
}

// handleMetrics serves the Prometheus text exposition: server counters and
// latency histograms, cache hit/miss, store and replication gauges, and the
// engine's cumulative work counters, all from one registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return s.met.reg.WriteText(w)
}

// dbInfo is the wire form of one catalog entry.
type dbInfo struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Version     uint64 `json:"version"`
	SourceBytes int    `json:"source_bytes"`
}

func entryInfo(e *registry.Entry) dbInfo {
	return dbInfo{Name: e.Name, Kind: string(e.Kind), Version: e.Version, SourceBytes: e.SourceBytes}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) error {
	list := s.reg.List()
	infos := make([]dbInfo, 0, len(list))
	for _, e := range list {
		infos = append(infos, entryInfo(e))
	}
	writeJSON(w, http.StatusOK, map[string]any{"databases": infos})
	return nil
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) error {
	e, err := s.entry(r)
	if err != nil {
		return err
	}
	reqInfoFrom(r.Context()).setDB(e.Name)
	resp := map[string]any{
		"name":         e.Name,
		"kind":         string(e.Kind),
		"version":      e.Version,
		"source_bytes": e.SourceBytes,
	}
	switch e.Kind {
	case registry.KindProgram:
		st, err := e.Stats()
		if err != nil {
			return err
		}
		resp["stats"] = map[string]any{
			"temporal":        st.Temporal,
			"representatives": st.Reps,
			"edges":           st.Edges,
			"tuples":          st.Tuples,
			"equations":       st.Equations,
			"seed_depth":      st.SeedDepth,
		}
	case registry.KindSpec:
		doc := e.Document()
		resp["stats"] = map[string]any{
			"temporal":        doc.Temporal,
			"representatives": len(doc.Reps),
			"edges":           len(doc.Edges),
			"equations":       len(doc.Equations),
			"seed_depth":      doc.SeedDepth,
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// readOnlyError rejects writes on replicas. The code is load-bearing:
// repl.RemoteClient fails over to the next endpoint when it sees it, so a
// write aimed at a replica lands on the primary instead of erroring.
func (s *Server) readOnlyError() error {
	if !s.cfg.ReadOnly {
		return nil
	}
	return errc(http.StatusForbidden, "read_only_replica", "this node is a read replica; send writes to the primary")
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) error {
	if err := s.readOnlyError(); err != nil {
		return err
	}
	name := r.PathValue("name")
	reqInfoFrom(r.Context()).setDB(name)
	if !registry.ValidName(name) {
		return errf(http.StatusBadRequest, "invalid database name %q", name)
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return errf(http.StatusBadRequest, "empty body")
	}
	_, existed := s.reg.Get(name)
	e, err := s.reg.Put(name, raw)
	if err != nil {
		return queryError(err)
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, entryInfo(e))
	return nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	if err := s.readOnlyError(); err != nil {
		return err
	}
	name := r.PathValue("name")
	reqInfoFrom(r.Context()).setDB(name)
	removed, err := s.reg.Remove(name)
	if err != nil {
		return err
	}
	if !removed {
		return errf(http.StatusNotFound, "no database named %q", name)
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

type factsRequest struct {
	// Facts is surface syntax containing only ground facts, e.g.
	// "Even(100). Meets(3, ann).".
	Facts string `json:"facts"`
}

func (req *factsRequest) fields() []field { return []field{{"facts", &req.Facts}} }

// handleFacts appends ground facts to a program database. The extension
// recomputes the specification and publishes a new catalog version, so
// cached answers for the old version expire by key.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) error {
	if err := s.readOnlyError(); err != nil {
		return err
	}
	name := r.PathValue("name")
	reqInfoFrom(r.Context()).setDB(name)
	var req factsRequest
	if err := s.decode(w, r, req.fields()); err != nil {
		return err
	}
	if strings.TrimSpace(req.Facts) == "" {
		return errf(http.StatusBadRequest, "missing facts")
	}
	e, err := s.reg.ExtendFacts(name, []byte(req.Facts))
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			return errf(http.StatusNotFound, "no database named %q", name)
		}
		return queryError(err)
	}
	writeJSON(w, http.StatusOK, entryInfo(e))
	return nil
}

type askRequest struct {
	Query string `json:"query"`
	Via   string `json:"via,omitempty"` // "" (DFA walk) or "cc"
	// Trace asks for a per-stage span trace of this query's evaluation. A
	// traced request bypasses the answer cache (a cached verdict has no
	// stages worth tracing) but still populates it.
	Trace bool `json:"trace,omitempty"`
}

func (req *askRequest) fields() []field {
	return []field{{"query", &req.Query}, {"via", &req.Via}, {"trace", &req.Trace}}
}

type askResponse struct {
	Answer  bool        `json:"answer"`
	Version uint64      `json:"version"`
	Cached  bool        `json:"cached"`
	Trace   *obs.Report `json:"trace,omitempty"`
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) error {
	if s.slow != nil {
		s.slow(r.Context())
	}
	e, err := s.entry(r)
	if err != nil {
		return err
	}
	var req askRequest
	if err := s.decode(w, r, req.fields()); err != nil {
		return err
	}
	if strings.TrimSpace(req.Query) == "" {
		return errf(http.StatusBadRequest, "missing query")
	}
	if req.Via != "" && req.Via != "cc" {
		return errf(http.StatusBadRequest, "unknown via %q (want \"\" or \"cc\")", req.Via)
	}
	em := s.met.endpoint("ask")
	// The traced ctx is built before the key so that a cold traced request
	// records its parse/compile spans (prepare compiles the plan).
	ctx, tr := s.traceContext(r, req.Trace)
	ri := reqInfoFrom(ctx)
	ri.setDB(e.Name)
	q := prepare(ctx, e, nil, req.Query)
	ri.setQuery(&q)
	key := cacheKey{db: e.Name, version: e.Version, endpoint: "ask", query: q.shape, via: req.Via}
	if !req.Trace {
		if v, ok := s.cache.get(key); ok {
			em.cacheHits.Add(1)
			writeAsk(w, askResponse{Answer: v.(bool), Version: e.Version, Cached: true})
			return nil
		}
	}
	em.cacheMisses.Add(1)
	var opts []core.Option
	if req.Via == "cc" {
		opts = append(opts, core.WithMethod(core.MethodEquational))
	}
	start := time.Now()
	ans, err := q.ask(ctx, opts...)
	s.logSlow(ri, "ask", e.Name, req.Query, time.Since(start), tr)
	if err != nil {
		return queryError(err)
	}
	s.cachePut(e, key, ans)
	writeAsk(w, askResponse{Answer: ans, Version: e.Version, Cached: false, Trace: tr.Report()})
	return nil
}

// writeAsk renders an ask's 200. Without a trace block the body is three
// scalars: it is appended to a pooled buffer, byte for byte what
// json.Encoder writes, and sent with its Content-Length.
func writeAsk(w http.ResponseWriter, resp askResponse) {
	if resp.Trace != nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	bp := getBuf()
	b := append((*bp)[:0], `{"answer":`...)
	b = strconv.AppendBool(b, resp.Answer)
	b = append(b, `,"version":`...)
	b = strconv.AppendUint(b, resp.Version, 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, resp.Cached)
	b = append(b, "}\n"...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	*bp = b
	putBuf(bp)
}

// traceContext prepares the evaluation context for one query request: the
// configured derivation-depth budget always rides along, the tenant's
// per-query work budget is attached when admission is enabled. With the
// flight recorder on, instrument already attached an always-on trace, which
// is returned when the request opted in ("trace":true); with the recorder
// off, an opt-in request gets a fresh trace. Requests that did not opt in
// get a nil trace back (whose Report is nil, so the response's trace block
// is simply omitted) even though spans may still record into the ambient
// always-on trace for the recorder's benefit.
func (s *Server) traceContext(r *http.Request, want bool) (context.Context, *obs.Trace) {
	ctx := obs.WithDepthBudget(r.Context(), s.cfg.MaxDerivationDepth)
	if adm := s.cfg.Admission; adm != nil {
		ctx = obs.WithBudget(ctx, adm.Budget(tenantFrom(r)))
	}
	if !want {
		return ctx, nil
	}
	ri := reqInfoFrom(ctx)
	if ri != nil {
		ri.wantTrace = true
	}
	if tr := obs.FromContext(ctx); tr != nil {
		return ctx, tr
	}
	tr := obs.NewTrace()
	if ri != nil {
		ri.trace = tr
	}
	return obs.WithTrace(ctx, tr), tr
}

type answersRequest struct {
	Query string `json:"query"`
	Depth int    `json:"depth,omitempty"`
	Limit int    `json:"limit,omitempty"`
	// Trace asks for a per-stage span trace; see askRequest.Trace.
	Trace bool `json:"trace,omitempty"`
}

func (req *answersRequest) fields() []field {
	return []field{{"query", &req.Query}, {"depth", &req.Depth}, {"limit", &req.Limit}, {"trace", &req.Trace}}
}

type answersResponse struct {
	Tuples    []registry.AnswerTuple `json:"tuples"`
	Count     int                    `json:"count"`
	Truncated bool                   `json:"truncated"`
	Version   uint64                 `json:"version"`
	Cached    bool                   `json:"cached"`
	Trace     *obs.Report            `json:"trace,omitempty"`
}

// answersResult is the cached portion of an answers response.
type answersResult struct {
	tuples    []registry.AnswerTuple
	truncated bool
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) error {
	e, err := s.entry(r)
	if err != nil {
		return err
	}
	var req answersRequest
	if err := s.decode(w, r, req.fields()); err != nil {
		return err
	}
	if strings.TrimSpace(req.Query) == "" {
		return errf(http.StatusBadRequest, "missing query")
	}
	if req.Depth < 0 || req.Depth > s.cfg.MaxDepth {
		return errf(http.StatusBadRequest, "depth %d out of range [0, %d]", req.Depth, s.cfg.MaxDepth)
	}
	if req.Limit < 0 {
		return errf(http.StatusBadRequest, "negative limit")
	}
	limit := req.Limit
	if limit == 0 || limit > s.cfg.MaxTuples {
		limit = s.cfg.MaxTuples
	}
	em := s.met.endpoint("answers")
	ctx, tr := s.traceContext(r, req.Trace)
	ri := reqInfoFrom(ctx)
	ri.setDB(e.Name)
	q := prepare(ctx, e, nil, req.Query)
	ri.setQuery(&q)
	key := cacheKey{db: e.Name, version: e.Version, endpoint: "answers",
		query: q.shape, depth: req.Depth, limit: limit}
	if !req.Trace {
		if v, ok := s.cache.get(key); ok {
			em.cacheHits.Add(1)
			res := v.(answersResult)
			writeJSON(w, http.StatusOK, answersResponse{Tuples: res.tuples, Count: len(res.tuples),
				Truncated: res.truncated, Version: e.Version, Cached: true})
			return nil
		}
	}
	em.cacheMisses.Add(1)
	start := time.Now()
	tuples, truncated, err := q.answers(ctx, core.WithDepth(req.Depth), core.WithLimit(limit))
	s.logSlow(ri, "answers", e.Name, req.Query, time.Since(start), tr)
	if err != nil {
		return queryError(err)
	}
	if tuples == nil {
		tuples = []registry.AnswerTuple{}
	}
	s.cachePut(e, key, answersResult{tuples: tuples, truncated: truncated})
	writeJSON(w, http.StatusOK, answersResponse{Tuples: tuples, Count: len(tuples),
		Truncated: truncated, Version: e.Version, Cached: false, Trace: tr.Report()})
	return nil
}

type batchRequest struct {
	// Queries are yes-no queries in the entry's surface syntax, evaluated
	// concurrently against one immutable snapshot.
	Queries []string `json:"queries"`
	// Trace asks for one shared span trace covering the whole batch; the
	// worker pool's spans interleave in it. See askRequest.Trace.
	Trace bool `json:"trace,omitempty"`
}

func (req *batchRequest) fields() []field {
	return []field{{"queries", &req.Queries}, {"trace", &req.Trace}}
}

// batchItem is one query's outcome inside a batch response; exactly one of
// Answer/Error is meaningful, discriminated by Error being present.
type batchItem struct {
	Query  string     `json:"query"`
	Answer bool       `json:"answer"`
	Error  *errorBody `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchItem `json:"results"`
	Version uint64      `json:"version"`
	Trace   *obs.Report `json:"trace,omitempty"`
}

// handleBatch evaluates many yes-no queries on one snapshot via a bounded
// worker pool. Per-query failures are reported inline (the batch itself
// still returns 200); only request-level problems — bad body, unknown
// database, expired deadline — fail the whole request.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	e, err := s.entry(r)
	if err != nil {
		return err
	}
	var req batchRequest
	if err := s.decode(w, r, req.fields()); err != nil {
		return err
	}
	if len(req.Queries) == 0 {
		return errf(http.StatusBadRequest, "missing queries")
	}
	if len(req.Queries) > s.cfg.MaxBatchQueries {
		return errf(http.StatusBadRequest, "batch of %d queries exceeds limit %d", len(req.Queries), s.cfg.MaxBatchQueries)
	}

	// Serve cached verdicts (shared with /ask by key) and collect misses.
	em := s.met.endpoint("batch")
	ctx, tr := s.traceContext(r, req.Trace)
	ri := reqInfoFrom(ctx)
	ri.setDB(e.Name)
	// Every query of the batch resolves and evaluates on one snapshot.
	var snap *core.Snapshot
	if db := e.Database(); db != nil {
		if snap, err = db.SnapshotContext(ctx); err != nil {
			return queryError(err)
		}
	}
	items := make([]batchItem, len(req.Queries))
	keys := make([]cacheKey, len(req.Queries))
	var misses []prepared
	var missIdx []int
	for i, q := range req.Queries {
		items[i].Query = q
		if strings.TrimSpace(q) == "" {
			items[i].Error = &errorBody{Code: "bad_request", Message: "missing query"}
			continue
		}
		p := prepare(ctx, e, snap, q)
		keys[i] = cacheKey{db: e.Name, version: e.Version, endpoint: "ask", query: p.shape}
		if !req.Trace {
			if v, ok := s.cache.get(keys[i]); ok {
				em.cacheHits.Add(1)
				items[i].Answer = v.(bool)
				continue
			}
		}
		em.cacheMisses.Add(1)
		misses = append(misses, p)
		missIdx = append(missIdx, i)
	}

	if len(misses) > 0 {
		start := time.Now()
		oks, errs := make([]bool, len(misses)), make([]error, len(misses))
		core.ForEach(len(misses), s.cfg.BatchWorkers, func(j int) {
			oks[j], errs[j] = misses[j].ask(ctx)
		})
		elapsed := time.Since(start)
		s.logSlow(ri, "batch", e.Name, fmt.Sprintf("(%d queries)", len(misses)), elapsed, tr)
		// Per-fingerprint stats for each evaluated item. Latency is the
		// batch's per-item share (items run concurrently, so individual
		// wall-clock is not observable); depth/step counters are batch-wide
		// and therefore skipped.
		perItem := elapsed / time.Duration(len(misses))
		for j, i := range missIdx {
			if s.stats != nil {
				s.stats.observe(e.Name, misses[j].fingerprint, keys[i].query,
					perItem, errs[j] != nil, -1, -1)
			}
			if errs[j] != nil {
				// A canceled query means the whole request's context
				// expired; fail the request so the client sees 499/504.
				if errors.Is(errs[j], core.ErrCanceled) {
					return errs[j]
				}
				_, body := classify(queryError(errs[j]))
				items[i].Error = &body
				continue
			}
			items[i].Answer = oks[j]
			s.cachePut(e, keys[i], oks[j])
		}
	}
	writeJSON(w, http.StatusOK, batchResponse{Results: items, Version: e.Version, Trace: tr.Report()})
	return nil
}

// exportResponse is a portable copy of one database: the source text plus
// enough metadata to recreate it with a plain PUT on another daemon. The
// reshard flow uses it as its "snapshot": a database ships as a compact
// relational specification, never as materialized answers.
type exportResponse struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Version uint64 `json:"version"`
	// LSN is a WAL position known to be ≤ every mutation NOT reflected in
	// Source. It is read before the entry, so tailing the WAL from LSN+1
	// can only re-apply mutations already folded in — harmless under the
	// registry's set semantics — never miss one.
	LSN    uint64 `json:"lsn"`
	Source string `json:"source"`
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) error {
	var lsn uint64
	if s.cfg.Repl != nil {
		lsn = s.cfg.Repl.LastLSN()
	}
	e, err := s.entry(r)
	if err != nil {
		return err
	}
	reqInfoFrom(r.Context()).setDB(e.Name)
	var src string
	switch e.Kind {
	case registry.KindProgram:
		// SourceText renders the live program, extended facts included.
		src = e.Database().SourceText()
	case registry.KindSpec:
		var b strings.Builder
		if err := e.Document().Write(&b); err != nil {
			return err
		}
		src = b.String()
	default:
		return errf(http.StatusInternalServerError, "cannot export kind %q", e.Kind)
	}
	writeJSON(w, http.StatusOK, exportResponse{
		Name: e.Name, Kind: string(e.Kind), Version: e.Version, LSN: lsn, Source: src})
	return nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) error {
	e, err := s.entry(r)
	if err != nil {
		return err
	}
	reqInfoFrom(r.Context()).setDB(e.Name)
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		return errf(http.StatusBadRequest, "missing q parameter")
	}
	ex, err := e.Explain(q)
	if err != nil {
		return errf(http.StatusBadRequest, "%v", err)
	}
	writeJSON(w, http.StatusOK, map[string]any{"explanation": ex, "version": e.Version})
	return nil
}
