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
// Every request but a stream has one deadline, Config.Timeout, and it rides
// the request's context from the mux down to Algorithm Q. The body is read
// once, by the one reader both daemons share (api.ReadBody), which holds the
// connection to the deadline and refuses more than MaxBodyBytes with 413.
// Evaluation polls the deadline, and so does the compile that the first read
// after an upload or facts pays for: Solve every 256 cells, Algorithm Q at
// every depth wave (by Theorem 4.2 its cluster count can be exponential). A
// write checks it at its commit point in the registry, so a write either
// commits and is answered 2xx, however late, or is refused and never
// published. Past the deadline, wherever the time went, the answer is 504
// deadline_exceeded.
// Streams (watch, replication) and the readiness probe have no deadline.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"funcdb/internal/admission"
	"funcdb/internal/api"
	"funcdb/internal/core"
	"funcdb/internal/obs"
	"funcdb/internal/parser"
	"funcdb/internal/query"
	"funcdb/internal/registry"
	"funcdb/internal/store"
	"funcdb/internal/watch"
)

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
	// Admission, when set, gates the query endpoints through the
	// multi-tenant admission controller: the tenant (X-Api-Key header) is
	// charged the endpoint's cost class against its token bucket, the
	// request waits in the bounded admission queue for an evaluation slot,
	// and every read runs under the tenant's per-query work budget, the
	// compile it may pay for included. Its limits are the only work bounds
	// besides the deadline. Sheds render as 429 rate_limited / 503
	// overloaded with Retry-After; budget kills as 422
	// depth_budget_exceeded (derivation depth) or budget_exceeded (the
	// rest).
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

// maxDepth caps the enumeration depth /answers and watch accept.
const maxDepth = 64

// Defaults for Config's zero values.
const (
	DefaultCacheSize       = 1024
	DefaultTimeout         = 10 * time.Second
	DefaultMaxBodyBytes    = 4 << 20
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
	hop     *api.Hop
	rec     *obs.Recorder
	pipe    *api.Pipeline
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
		s.rec = obs.NewRecorder(s.cfg.TraceBuffer, s.cfg.SlowQuery, s.cfg.TraceSample)
	}
	s.rec.Instrument(s.met.reg, "funcdbd_")
	s.pipe = &api.Pipeline{Recorder: s.rec, Log: s.log}
	s.stats = newQueryStats(s.met.reg, s.cfg.StatsTopK)
	obs.RegisterBuildInfo(s.met.reg, "fdbd", "")

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
			// The per-tenant watch cap and work budget follow the admission
			// policy file.
			// Daemons passing a pre-wired hub wire this themselves.
			wopts.TenantCap = s.cfg.Admission.WatchCap
			wopts.Budget = s.cfg.Admission.Budget
		}
		s.cfg.Watch = watch.NewHub(wopts)
		reg.SetNotifier(s.cfg.Watch.Notify)
	}
	s.cfg.Watch.Instrument(s.met.reg)
	if s.cfg.Admission != nil {
		s.cfg.Admission.Instrument(s.met.reg)
	}

	// One mux, two ways to treat the deadline. timed endpoints run under a
	// context deadline that instrument sets, which the body reader, the
	// evaluation, the compile and a write's commit point all honour. untimed
	// ones have none: streams are long-lived by design, and a readiness probe
	// must not compete with the request deadline during recovery.
	mux := http.NewServeMux()
	timed := func(pattern, endpoint string, h api.Handler) {
		mux.Handle(pattern, s.instrument(endpoint, s.cfg.Timeout, h))
	}
	untimed := func(pattern, endpoint string, h api.Handler) {
		mux.Handle(pattern, s.instrument(endpoint, 0, h))
	}
	timed("GET /healthz", "healthz", s.handleHealthz)
	timed("GET /metrics", "metrics", s.handleMetrics)
	timed("GET /v1/dbs", "dbs", s.handleList)
	timed("GET /v1/db/{name}", "db", s.handleInfo)
	timed("PUT /v1/db/{name}", "put", s.handlePut)
	timed("DELETE /v1/db/{name}", "delete", s.handleDelete)
	timed("POST /v1/db/{name}/facts", "facts", s.handleFacts)
	timed("GET /v1/db/{name}/explain", "explain", s.handleExplain)
	timed("GET /v1/db/{name}/export", "export", s.handleExport)
	timed("GET /v1/db/{name}/stats", "stats", s.handleStats)
	if s.rec != nil {
		timed("GET /debug/traces", "traces", s.handleTraceList)
		timed("GET /debug/traces/{id}", "traces", s.handleTraceGet)
	}
	timed("POST /v1/db/{name}/ask", "ask", s.handleAsk)
	timed("POST /v1/db/{name}/answers", "answers", s.handleAnswers)
	timed("POST /v1/db/{name}/batch", "batch", s.handleBatch)
	untimed("POST /v1/db/{name}/watch", "watch", s.handleWatch)
	untimed("GET /readyz", "readyz", s.handleReadyz)
	if s.cfg.Repl != nil {
		untimed("GET /v1/repl/snapshot", "repl_snapshot", s.handleReplSnapshot)
		untimed("GET /v1/repl/wal", "repl_wal", s.handleReplWAL)
		timed("GET /v1/repl/lsn", "repl_lsn", s.handleReplLSN)
	}
	// A router's requests arrive as hop frames (api.ServeHop) and are
	// served by this same mux.
	s.hop = api.ServeHop(mux)
	s.handler = s.hop
	return s
}

// Handler returns the fully wired handler (deadlines and the router hop
// included); mount it on an http.Server or httptest.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown drains the router hop, which http.Server.Shutdown cannot see:
// call it after that returns. Idle hop connections close at once and busy
// ones once their in-flight request is answered; when ctx ends first, the
// rest are cut.
func (s *Server) Shutdown(ctx context.Context) error { return s.hop.Shutdown(ctx) }

// errf is a refusal whose code is the status's default one.
func errf(status int, format string, args ...any) *api.Error {
	return api.Errorf(status, codeForStatus(status), format, args...)
}

// classify maps an error to the refusal it is rendered as, using the typed
// errors of the evaluation stack.
func classify(err error) *api.Error {
	refuse := func(status int, code string) *api.Error {
		return &api.Error{Status: status, Code: code, Message: err.Error()}
	}
	var ae *api.Error
	var pe *parser.ParseError
	var shed *admission.ShedError
	var be *obs.BudgetError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.As(err, &shed):
		status := http.StatusTooManyRequests
		if shed.Code == admission.CodeOverloaded {
			status = http.StatusServiceUnavailable
		}
		return api.Errorf(status, shed.Code, "%s", shed.Error()).
			WithRetryAfter(max(1, int(shed.RetryAfter/time.Second)))
	case errors.Is(err, registry.ErrUnknownDatabase):
		return refuse(http.StatusNotFound, "not_found")
	case errors.Is(err, context.DeadlineExceeded):
		// One answer for a request that ran out of time, wherever it was
		// spent: in evaluation or the compile (wrapped in core.ErrCanceled),
		// waiting for admission (bare), or before a write's commit point. A
		// body cut off at its read deadline is already answered by
		// api.ReadBody.
		return refuse(http.StatusGatewayTimeout, "deadline_exceeded")
	case errors.Is(err, core.ErrCanceled) || errors.Is(err, context.Canceled):
		return refuse(api.StatusClientClosedRequest, "canceled")
	case errors.As(err, &pe):
		return refuse(http.StatusBadRequest, "parse_error")
	case errors.Is(err, query.ErrUnsafeQuery):
		return refuse(http.StatusBadRequest, "unsafe_query")
	case errors.Is(err, core.ErrNeedsRules):
		// A well-formed query a specification document cannot answer:
		// Theorem 5.1 covers uniform queries only.
		return refuse(http.StatusUnprocessableEntity, "needs_rules")
	case errors.As(err, &be):
		// An exhausted per-query work budget: the query died by policy, not
		// the node. One code per resource: the derivation depth has its own,
		// Algorithm Q steps and arena bytes share the other.
		if be.Resource == "derivation_depth" {
			return refuse(http.StatusUnprocessableEntity, "depth_budget_exceeded")
		}
		return refuse(http.StatusUnprocessableEntity, "budget_exceeded")
	}
	return api.AsError(err)
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
	case api.StatusClientClosedRequest:
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
		errors.Is(err, obs.ErrBudgetExceeded) || errors.Is(err, core.ErrNeedsRules) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	return errf(http.StatusBadRequest, "%v", err)
}

// setQuery records what the request asked, as resolved by prepare. Nothing
// is derived from the text here: this runs on every request.
func setQuery(in *api.Info, p *prepared) {
	in.Query, in.Shape, in.Fingerprint = p.query, p.shape, p.fingerprint
}

// instrument mounts h on the shared request pipeline (request ID, trace,
// deadline, envelope, flight recorder, log line: api.Pipeline.Wrap) with
// this daemon's own parts around the handler: admission, the endpoint's
// request/error/latency series, and the per-fingerprint stats table.
func (s *Server) instrument(endpoint string, timeout time.Duration, h api.Handler) http.Handler {
	em := s.met.endpoint(endpoint)
	cost, gated := endpointCost[endpoint]
	write := endpoint == "put" || endpoint == "facts" || endpoint == "delete"
	return s.pipe.Wrap(endpoint, timeout, func(w http.ResponseWriter, r *http.Request) error {
		in := api.InfoFrom(r.Context())
		var err error
		if adm := s.cfg.Admission; adm != nil && gated {
			if endpoint == "watch" {
				// A watch is long-lived: charge the bucket only. Its
				// concurrency is bounded by the hub's caps, so it must not
				// pin an evaluation slot for the stream's lifetime.
				err = adm.AdmitRate(in.Tenant, cost)
			} else {
				var release func()
				release, err = adm.Admit(r.Context(), in.Tenant, cost)
				if release != nil {
					defer release()
				}
			}
			// The one place a request gets its work budget: every read
			// runs under it, the compile a first read pays for included.
			// Writes run without one.
			if err == nil && !write {
				in.SetBudget(adm.Budget(in.Tenant))
			}
		}
		if err == nil {
			err = h(w, r)
		}
		d := time.Since(in.Start)
		em.observe(d, err != nil)
		if s.stats != nil && in.Fingerprint != "" {
			s.stats.observe(in.DB, in.Fingerprint, in.Shape, d, err != nil,
				in.Trace.Counter("derivation_depth"), in.Trace.Counter("algoq_steps"))
		}
		if err == nil {
			return nil
		}
		e := classify(err)
		if e.Code == "budget_exceeded" || e.Code == "depth_budget_exceeded" {
			s.cfg.Admission.RecordBudgetKill()
		}
		return e
	})
}

// logSlow emits the slow-query log line when evaluation of one query took at
// least Config.SlowQuery, tagged with tenant, fingerprint and trace ID so it
// joins against flight-recorder entries. tr may be nil; in fills the gap.
func (s *Server) logSlow(in *api.Info, db, q string, d time.Duration, tr *obs.Trace) {
	if s.cfg.SlowQuery <= 0 || d < s.cfg.SlowQuery {
		return
	}
	args := []any{"endpoint", in.Endpoint, "db", db, "query", obs.ClipQuery(q), "dur_ms", d.Milliseconds()}
	if tr == nil {
		tr = in.Trace
	}
	if tr != nil {
		args = append(args, "trace_id", tr.ID())
	}
	args = append(args, "tenant", in.Tenant)
	if in.Fingerprint != "" {
		args = append(args, "fingerprint", in.Fingerprint)
	}
	s.log.Warn("slow query", args...)
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
// once: the query is compiled (or found in the plan cache) by a single plan
// lookup, and that plan both names the response-cache slot — its canonical
// shape, so α-variants and respellings of one query share a slot — and is
// what the request executes on a cache miss, against the same snapshot.
// Keying on shape is safe because answers are positional (query.Tuple
// carries no variable names) and the key already includes the version.
// Unparsable queries have no plan and key on the whitespace-normalized text.
type prepared struct {
	query       string
	plan        *core.Plan // nil when err is set
	err         error      // the query does not parse or compile
	shape       string     // the answer-cache key component
	fingerprint string     // the shape's short hash: the plan's, computed at compile
}

// prepare resolves q against snap when the caller pinned one (a batch), and
// against e's current snapshot otherwise.
func prepare(ctx context.Context, e *registry.Entry, snap *core.Snapshot, q string) prepared {
	p := prepared{query: q}
	if snap != nil {
		p.plan, p.err = snap.Prepare(ctx, q)
	} else {
		p.plan, p.err = e.Prepare(ctx, q)
	}
	p.key()
	return p
}

// prepareText is prepare, against e's current snapshot, for a text that
// views a request body the handler holds: a plan-cache hit is found from the
// bytes, and the query kept is the cache's own string, so a hit copies
// nothing of the text; only a miss makes a string of it.
func prepareText(ctx context.Context, e *registry.Entry, text []byte) prepared {
	var p prepared
	p.plan, p.query, p.err = e.PrepareBytes(ctx, text)
	p.key()
	return p
}

// key fills in the shape and fingerprint the query is keyed on.
func (p *prepared) key() {
	if p.plan != nil {
		p.shape, p.fingerprint = p.plan.Shape(), p.plan.Fingerprint()
	} else {
		p.shape = normalizeQuery(p.query)
		p.fingerprint = obs.Fingerprint(p.shape)
	}
}

func (p *prepared) ask(ctx context.Context, opts ...core.Option) (bool, error) {
	if p.err != nil {
		return false, p.err
	}
	return p.plan.Ask(ctx, opts...)
}

func (p *prepared) answers(ctx context.Context, opts ...core.Option) ([]query.Tuple, bool, error) {
	if p.err != nil {
		return nil, false, p.err
	}
	return registry.PlanAnswers(ctx, p.plan, opts...)
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
		return api.Errorf(http.StatusServiceUnavailable, "not_live", "server has no registry")
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "databases": s.reg.Len()})
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
	api.WriteJSON(w, http.StatusOK, map[string]any{"databases": infos})
	return nil
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) error {
	e, err := s.entry(r)
	if err != nil {
		return err
	}
	api.InfoFrom(r.Context()).DB = e.Name
	resp := map[string]any{
		"name":         e.Name,
		"kind":         string(e.Kind),
		"version":      e.Version,
		"source_bytes": e.SourceBytes,
	}
	st, err := e.Stats(r.Context())
	if err != nil {
		return err
	}
	stats := map[string]any{
		"temporal":        st.Temporal,
		"representatives": st.Reps,
		"edges":           st.Edges,
		"tuples":          st.Tuples,
		"equations":       st.Equations,
		"seed_depth":      st.SeedDepth,
	}
	if st.Lasso != nil {
		stats["lasso"] = map[string]int{"tail": st.Lasso.Tail, "period": st.Lasso.Period}
	}
	resp["stats"] = stats
	api.WriteJSON(w, http.StatusOK, resp)
	return nil
}

// readOnlyError rejects writes on replicas. The code is load-bearing:
// repl.RemoteClient fails over to the next endpoint when it sees it, so a
// write aimed at a replica lands on the primary instead of erroring.
func (s *Server) readOnlyError() error {
	if !s.cfg.ReadOnly {
		return nil
	}
	return api.Errorf(http.StatusForbidden, "read_only_replica", "this node is a read replica; send writes to the primary")
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) error {
	if err := s.readOnlyError(); err != nil {
		return err
	}
	name := r.PathValue("name")
	api.InfoFrom(r.Context()).DB = name
	if !registry.ValidName(name) {
		return errf(http.StatusBadRequest, "invalid database name %q", name)
	}
	// The upload is retained (journaled, replicated), so it gets a buffer of
	// its own rather than a pooled one.
	deadline, _ := r.Context().Deadline()
	raw, err := api.ReadBody(w, r, nil, s.cfg.MaxBodyBytes, deadline)
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		return errf(http.StatusBadRequest, "empty body")
	}
	_, existed := s.reg.Get(name)
	e, err := s.reg.Put(r.Context(), name, raw)
	if err != nil {
		return queryError(err)
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	api.WriteJSON(w, status, entryInfo(e))
	return nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	if err := s.readOnlyError(); err != nil {
		return err
	}
	name := r.PathValue("name")
	api.InfoFrom(r.Context()).DB = name
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

func (req *factsRequest) fields() []field { return []field{{name: "facts", str: &req.Facts}} }

// handleFacts appends ground facts to a program database. The extension
// recomputes the specification and publishes a new catalog version, so
// cached answers for the old version expire by key.
func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) error {
	if err := s.readOnlyError(); err != nil {
		return err
	}
	name := r.PathValue("name")
	api.InfoFrom(r.Context()).DB = name
	var req factsRequest
	if err := s.decode(w, r, req.fields()); err != nil {
		return err
	}
	if strings.TrimSpace(req.Facts) == "" {
		return errf(http.StatusBadRequest, "missing facts")
	}
	e, err := s.reg.ExtendFactsContext(r.Context(), name, []byte(req.Facts))
	if err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			return errf(http.StatusNotFound, "no database named %q", name)
		}
		return queryError(err)
	}
	api.WriteJSON(w, http.StatusOK, entryInfo(e))
	return nil
}

type askRequest struct {
	// Query is a view into the request body (queryText): handleAsk holds
	// the body until it returns.
	Query queryText `json:"query"`
	Via   string    `json:"via,omitempty"` // "" (DFA walk) or "cc"
	// Trace asks for a per-stage span trace of this query's evaluation. A
	// traced request bypasses the answer cache (a cached verdict has no
	// stages worth tracing) but still populates it.
	Trace bool `json:"trace,omitempty"`
}

func (req *askRequest) fields() []field {
	return []field{{name: "query", query: &req.Query}, {name: "via", str: &req.Via}, {name: "trace", flag: &req.Trace}}
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
	bp, err := s.decodeHeld(w, r, req.fields())
	defer release(bp)
	if err != nil {
		return err
	}
	if len(bytes.TrimSpace(req.Query)) == 0 {
		return errf(http.StatusBadRequest, "missing query")
	}
	if req.Via != "" && req.Via != "cc" {
		return errf(http.StatusBadRequest, "unknown via %q (want \"\" or \"cc\")", req.Via)
	}
	em := s.met.endpoint("ask")
	// The traced ctx is built before the key so that a cold traced request
	// records its parse/compile spans (prepare compiles the plan).
	ctx, tr := s.traceContext(r, req.Trace)
	in := api.InfoFrom(ctx)
	in.DB = e.Name
	q := prepareText(ctx, e, req.Query)
	setQuery(in, &q)
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
	s.logSlow(in, e.Name, q.query, time.Since(start), tr)
	if err != nil {
		return queryError(err)
	}
	s.cachePut(e, key, ans)
	writeAsk(w, askResponse{Answer: ans, Version: e.Version, Cached: false, Trace: tr.Report()})
	return nil
}

// contentJSON is the Content-Type value every cached-ask response shares:
// read-only, and without spare capacity, so that an Add copies it.
var contentJSON = []string{api.ContentJSON}

// writeAsk renders an ask's 200. Without a trace block the body is three
// scalars: it is appended to a pooled buffer, byte for byte what
// json.Encoder writes, and sent with the shared Content-Type.
func writeAsk(w http.ResponseWriter, resp askResponse) {
	if resp.Trace != nil {
		api.WriteJSON(w, http.StatusOK, resp)
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
	// net/http sends the Content-Length of a body this small itself, and a
	// hop frame carries its length.
	w.Header()["Content-Type"] = contentJSON
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	*bp = b
	putBuf(bp)
}

// traceContext prepares the evaluation context for one query request. With
// the flight recorder on, instrument already attached an always-on trace,
// which is returned when the request opted in ("trace":true); with the
// recorder off, an opt-in request gets a fresh trace. Requests that did not
// opt in get a nil trace back (whose Report is nil, so the response's trace
// block is simply omitted) even though spans may still record into the
// ambient always-on trace for the recorder's benefit.
func (s *Server) traceContext(r *http.Request, want bool) (context.Context, *obs.Trace) {
	ctx := r.Context()
	if !want {
		return ctx, nil
	}
	in := api.InfoFrom(ctx)
	in.Keep = true
	if tr := obs.FromContext(ctx); tr != nil {
		return ctx, tr
	}
	in.Trace = obs.NewTrace()
	return obs.WithTrace(ctx, in.Trace), in.Trace
}

type answersRequest struct {
	Query string `json:"query"`
	Depth int    `json:"depth,omitempty"`
	Limit int    `json:"limit,omitempty"`
	// Trace asks for a per-stage span trace; see askRequest.Trace.
	Trace bool `json:"trace,omitempty"`
}

func (req *answersRequest) fields() []field {
	return []field{{name: "query", str: &req.Query}, {name: "depth", num: &req.Depth}, {name: "limit", num: &req.Limit}, {name: "trace", flag: &req.Trace}}
}

type answersResponse struct {
	Tuples    []query.Tuple `json:"tuples"`
	Count     int           `json:"count"`
	Truncated bool          `json:"truncated"`
	Version   uint64        `json:"version"`
	Cached    bool          `json:"cached"`
	Trace     *obs.Report   `json:"trace,omitempty"`
}

// answersResult is the cached portion of an answers response.
type answersResult struct {
	tuples    []query.Tuple
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
	if req.Depth < 0 || req.Depth > maxDepth {
		return errf(http.StatusBadRequest, "depth %d out of range [0, %d]", req.Depth, maxDepth)
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
	in := api.InfoFrom(ctx)
	in.DB = e.Name
	q := prepare(ctx, e, nil, req.Query)
	setQuery(in, &q)
	key := cacheKey{db: e.Name, version: e.Version, endpoint: "answers",
		query: q.shape, depth: req.Depth, limit: limit}
	if !req.Trace {
		if v, ok := s.cache.get(key); ok {
			em.cacheHits.Add(1)
			res := v.(answersResult)
			api.WriteJSON(w, http.StatusOK, answersResponse{Tuples: res.tuples, Count: len(res.tuples),
				Truncated: res.truncated, Version: e.Version, Cached: true})
			return nil
		}
	}
	em.cacheMisses.Add(1)
	start := time.Now()
	tuples, truncated, err := q.answers(ctx, core.WithDepth(req.Depth), core.WithLimit(limit))
	s.logSlow(in, e.Name, req.Query, time.Since(start), tr)
	if err != nil {
		return queryError(err)
	}
	if tuples == nil {
		tuples = []query.Tuple{}
	}
	s.cachePut(e, key, answersResult{tuples: tuples, truncated: truncated})
	api.WriteJSON(w, http.StatusOK, answersResponse{Tuples: tuples, Count: len(tuples),
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
	return []field{{name: "queries", list: &req.Queries}, {name: "trace", flag: &req.Trace}}
}

// batchItem is one query's outcome inside a batch response; exactly one of
// Answer/Error is meaningful, discriminated by Error being present.
type batchItem struct {
	Query  string         `json:"query"`
	Answer bool           `json:"answer"`
	Error  *api.ErrorBody `json:"error,omitempty"`
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
	in := api.InfoFrom(ctx)
	in.DB = e.Name
	// Every query of the batch resolves and evaluates on one snapshot.
	snap, err := e.Snapshot(ctx)
	if err != nil {
		return queryError(err)
	}
	items := make([]batchItem, len(req.Queries))
	keys := make([]cacheKey, len(req.Queries))
	var misses []prepared
	var missIdx []int
	for i, q := range req.Queries {
		items[i].Query = q
		if strings.TrimSpace(q) == "" {
			items[i].Error = &api.ErrorBody{Code: "bad_request", Message: "missing query"}
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
		s.logSlow(in, e.Name, fmt.Sprintf("(%d queries)", len(misses)), elapsed, tr)
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
				items[i].Error = classify(queryError(errs[j])).Body()
				continue
			}
			items[i].Answer = oks[j]
			s.cachePut(e, keys[i], oks[j])
		}
	}
	api.WriteJSON(w, http.StatusOK, batchResponse{Results: items, Version: e.Version, Trace: tr.Report()})
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
	api.InfoFrom(r.Context()).DB = e.Name
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
	api.WriteJSON(w, http.StatusOK, exportResponse{
		Name: e.Name, Kind: string(e.Kind), Version: e.Version, LSN: lsn, Source: src})
	return nil
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) error {
	e, err := s.entry(r)
	if err != nil {
		return err
	}
	api.InfoFrom(r.Context()).DB = e.Name
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		return errf(http.StatusBadRequest, "missing q parameter")
	}
	ex, err := e.Explain(r.Context(), q)
	if err != nil {
		return queryError(err)
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"explanation": ex, "version": e.Version})
	return nil
}
