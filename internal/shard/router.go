package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/obs"
)

// Router is the stateless fdbrouter core: an http.Handler that proxies the
// public /v1 API to the shard groups named by the live Map. It owns no
// catalog state — everything it needs is the map — so any number of router
// instances can run behind one load balancer.
//
// Placement rules:
//   - writes (PUT/DELETE db, POST facts) go to the owner group's primary
//     only, and are refused with a retryable 409 "resharding" while the
//     database is frozen mid-reshard;
//   - reads (info, ask, answers, batch, explain, watch) round-robin across
//     the owner group's endpoints, skipping endpoints whose /readyz probe
//     failed recently and failing over on transport errors;
//   - GET /v1/dbs and POST /v1/batch scatter-gather across every group
//     with a per-shard deadline, reporting stragglers in a partial-failure
//     envelope instead of failing the whole request.
type Router struct {
	src     *Source
	client  *http.Client
	log     *slog.Logger
	timeout time.Duration // per-shard deadline for fan-out legs
	handler http.Handler

	// health caches one verdict per endpoint so a dead replica costs one
	// probe per TTL, not one timeout per request.
	healthMu sync.Mutex
	health   map[string]healthVerdict

	// writes counts in-flight write requests per database; the reshard
	// flow's drain step waits for a frozen database's count to reach zero
	// before trusting the WAL tail to be final.
	writesMu sync.Mutex
	writes   map[string]int

	// streams tracks proxied watch streams so a shard-map flip can cut the
	// ones whose database changed owners; clients reconnect and land on
	// the new group.
	streamsMu sync.Mutex
	streams   map[*proxiedStream]struct{}

	groupMu sync.Mutex
	groups  map[string]*groupState // by group name; entries outlive map versions

	met        *obs.Registry
	rec        *obs.Recorder
	mFanout    *obs.Histogram
	mProxy     *obs.Histogram
	mStreams   *obs.Gauge
	mFailovers *obs.Counter
}

// groupState is what the router keeps per shard group across requests.
type groupState struct {
	next     atomic.Uint64 // round-robin cursor over the group's endpoints
	requests *obs.Counter  // fdbrouter_requests_total{group}
}

type healthVerdict struct {
	ok    bool
	until time.Time
}

type proxiedStream struct {
	db     string
	cancel context.CancelFunc
}

// Options configures a Router. The zero value works.
type Options struct {
	// ShardTimeout bounds each scatter-gather leg (default 5s).
	ShardTimeout time.Duration
	// Client performs upstream requests; default has no global timeout
	// (per-request contexts bound the fan-out legs; watch streams are
	// unbounded by design).
	Client *http.Client
	// Logger for request warnings; default slog.Default().
	Logger *slog.Logger
	// Metrics receives router series; default a fresh registry exposed at
	// the router's own /metrics.
	Metrics *obs.Registry
	// TraceBuffer sizes the router's flight recorder (entries). Negative
	// disables it — and with it the router-side always-on tracing. Zero
	// means obs.DefaultTraceBuffer.
	TraceBuffer int
	// TraceSample keeps one in N unremarkable proxied requests in the
	// flight recorder; zero means obs.DefaultTraceSample.
	TraceSample int
	// SlowTrace marks proxied requests at least this slow for retention;
	// zero means obs.DefaultSlowTrace.
	SlowTrace time.Duration
}

const (
	healthTTL     = 2 * time.Second
	probeTimeout  = 750 * time.Millisecond
	maxProxyBody  = 16 << 20 // request bodies buffered for endpoint failover
	retryAfterSec = "1"
)

// copyBufs recycles the buffers responses are relayed through: io.Copy would
// allocate 32 KB per proxied request, because neither side of the relay has a
// ReadFrom or WriteTo to hand the copy to.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

func relay(dst io.Writer, src io.Reader) {
	buf := copyBufs.Get().(*[32 << 10]byte)
	io.CopyBuffer(dst, src, buf[:])
	copyBufs.Put(buf)
}

// NewRouter wires a Router over src.
func NewRouter(src *Source, opts Options) *Router {
	rt := &Router{
		src:     src,
		client:  opts.Client,
		log:     opts.Logger,
		timeout: opts.ShardTimeout,
		health:  make(map[string]healthVerdict),
		writes:  make(map[string]int),
		streams: make(map[*proxiedStream]struct{}),
		groups:  make(map[string]*groupState),
		met:     opts.Metrics,
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	if rt.log == nil {
		rt.log = slog.Default()
	}
	if rt.timeout <= 0 {
		rt.timeout = 5 * time.Second
	}
	if rt.met == nil {
		rt.met = obs.NewRegistry()
	}
	rt.mFanout = rt.met.Histogram("fdbrouter_fanout_seconds",
		"Wall time of scatter-gather requests (dbs listing, cross-db batch).", obs.DurationBuckets)
	rt.mProxy = rt.met.Histogram("fdbrouter_proxy_seconds",
		"Wall time of single-shard proxied requests.", obs.DurationBuckets)
	rt.mStreams = rt.met.Gauge("fdbrouter_streams",
		"Currently proxied watch streams.")
	rt.mFailovers = rt.met.Counter("fdbrouter_failovers_total",
		"Read requests that failed over to another endpoint in the group.")
	rt.met.GaugeFunc("fdbrouter_shardmap_version",
		"Version of the live shard map.", func() float64 { return float64(src.Version()) })
	if opts.TraceBuffer >= 0 {
		rt.rec = obs.NewRecorder(opts.TraceBuffer, opts.SlowTrace, opts.TraceSample)
		rt.rec.Instrument(rt.met, "fdbrouter_")
	}
	obs.RegisterBuildInfo(rt.met, "fdbrouter", "")

	src.OnChange(rt.cutMovedStreams)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /v1/shardmap", rt.handleMapGet)
	mux.HandleFunc("PUT /v1/shardmap", rt.handleMapPut)
	mux.HandleFunc("GET /v1/dbs", rt.handleListDBs)
	mux.HandleFunc("POST /v1/batch", rt.handleCrossBatch)
	mux.HandleFunc("PUT /v1/db/{name}", rt.handleWrite)
	mux.HandleFunc("DELETE /v1/db/{name}", rt.handleWrite)
	mux.HandleFunc("POST /v1/db/{name}/facts", rt.handleWrite)
	mux.HandleFunc("GET /v1/db/{name}", rt.handleRead)
	mux.HandleFunc("POST /v1/db/{name}/ask", rt.handleRead)
	mux.HandleFunc("POST /v1/db/{name}/answers", rt.handleRead)
	mux.HandleFunc("POST /v1/db/{name}/batch", rt.handleRead)
	mux.HandleFunc("GET /v1/db/{name}/explain", rt.handleRead)
	mux.HandleFunc("POST /v1/db/{name}/watch", rt.handleWatch)
	if rt.rec != nil {
		mux.HandleFunc("GET /debug/traces", rt.handleTraceList)
		mux.HandleFunc("GET /debug/traces/{id}", rt.handleTraceGet)
	}
	rt.handler = mux
	return rt
}

// Recorder exposes the router's flight recorder (nil when disabled), so the
// daemon and tests can inspect it.
func (rt *Router) Recorder() *obs.Recorder { return rt.rec }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.handler.ServeHTTP(w, r) }

// ---- error envelope (matches internal/server's shape) ----

func (rt *Router) fail(w http.ResponseWriter, status int, code, format string, args ...any) {
	if sw, ok := w.(*statusWriter); ok {
		sw.code = code
	}
	if status == http.StatusConflict || status == http.StatusServiceUnavailable ||
		status == http.StatusBadGateway || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterSec)
	}
	writeJSON(w, status, map[string]any{"error": map[string]string{
		"code": code, "message": fmt.Sprintf(format, args...)}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// ---- admin and health endpoints ----

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shardmap_version": rt.src.Version()})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	m := rt.src.Current()
	if m == nil {
		rt.fail(w, http.StatusServiceUnavailable, "no_shardmap", "no shard map installed yet")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ready", "shardmap_version": m.Version, "groups": len(m.Groups)})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.met.WriteText(w)
}

func (rt *Router) handleMapGet(w http.ResponseWriter, r *http.Request) {
	m := rt.src.Current()
	if m == nil {
		rt.fail(w, http.StatusNotFound, "no_shardmap", "no shard map installed yet")
		return
	}
	raw, err := EncodeMap(m)
	if err != nil {
		rt.fail(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// handleMapPut installs a new shard map. With ?drain=<db> it additionally
// waits (bounded by ?drain_timeout, default 10s) until no write to that
// database is in flight through this router — the reshard flow freezes a
// database, drains it here, and only then trusts the source WAL tail to be
// final.
func (rt *Router) handleMapPut(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody))
	if err != nil {
		rt.fail(w, http.StatusBadRequest, "bad_request", "read body: %v", err)
		return
	}
	m, err := DecodeMap(raw)
	if err != nil {
		rt.fail(w, http.StatusBadRequest, "bad_shardmap", "%v", err)
		return
	}
	if err := rt.src.Install(m); err != nil {
		rt.fail(w, http.StatusConflict, "stale_shardmap", "%v", err)
		return
	}
	drained := true
	if db := r.URL.Query().Get("drain"); db != "" {
		timeout := 10 * time.Second
		if v := r.URL.Query().Get("drain_timeout"); v != "" {
			if d, err := time.ParseDuration(v); err == nil && d > 0 {
				timeout = d
			}
		}
		drained = rt.drainWrites(r.Context(), db, timeout)
	}
	rt.log.Info("shard map installed", "version", m.Version, "groups", len(m.Groups),
		"frozen", m.Frozen, "drained", drained)
	writeJSON(w, http.StatusOK, map[string]any{"version": m.Version, "drained": drained})
}

func (rt *Router) drainWrites(ctx context.Context, db string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		rt.writesMu.Lock()
		n := rt.writes[db]
		rt.writesMu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---- single-shard proxying ----

func (rt *Router) liveMap(w http.ResponseWriter) *Map {
	m := rt.src.Current()
	if m == nil {
		rt.fail(w, http.StatusServiceUnavailable, "no_shardmap", "router has no shard map yet")
	}
	return m
}

func (rt *Router) owner(w http.ResponseWriter, m *Map, db string) *Group {
	g, err := m.Owner(db)
	if err != nil {
		rt.fail(w, http.StatusInternalServerError, "internal", "%v", err)
		return nil
	}
	return g
}

// handleWrite proxies a mutation to the owner group's primary. No failover:
// there is exactly one writable daemon per group, and surfacing a retryable
// 502 beats guessing.
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	sw, r, tr, root := rt.beginTrace(w, r)
	db := r.PathValue("name")
	var body []byte
	defer func() { rt.finishTrace(sw, tr, root, routerEndpoint(r), db, reqStart, body) }()
	m := rt.liveMap(sw)
	if m == nil {
		return
	}
	if m.IsFrozen(db) {
		rt.fail(sw, http.StatusConflict, "resharding",
			"database %q is being resharded; retry shortly", db)
		return
	}
	g := rt.owner(sw, m, db)
	if g == nil {
		return
	}
	body, ok := rt.readBody(sw, r)
	if !ok {
		return
	}
	rt.writesMu.Lock()
	rt.writes[db]++
	rt.writesMu.Unlock()
	defer func() {
		rt.writesMu.Lock()
		rt.writes[db]--
		rt.writesMu.Unlock()
	}()
	start := time.Now()
	primary := g.targets[0]
	fctx, sp := obs.StartSpan(r.Context(), primary.span)
	err := rt.forward(sw, r.WithContext(fctx), m, g, primary, body, false)
	sp.End()
	rt.mProxy.Observe(time.Since(start).Seconds())
	if err != nil {
		rt.markBad(primary.url)
		rt.fail(sw, http.StatusBadGateway, "primary_unreachable",
			"group %s primary: %v", g.Name, err)
	}
}

// handleRead proxies a query to the owner group, balancing across its
// endpoints and failing over on transport errors.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	sw, r, tr, root := rt.beginTrace(w, r)
	db := r.PathValue("name")
	var body []byte
	defer func() { rt.finishTrace(sw, tr, root, routerEndpoint(r), db, reqStart, body) }()
	m := rt.liveMap(sw)
	if m == nil {
		return
	}
	g := rt.owner(sw, m, db)
	if g == nil {
		return
	}
	body, ok := rt.readBody(sw, r)
	if !ok {
		return
	}
	start := time.Now()
	defer func() { rt.mProxy.Observe(time.Since(start).Seconds()) }()
	var lastErr error
	for i, ep := range rt.readOrder(g) {
		if i > 0 {
			rt.mFailovers.Inc()
			tr.Add("router_failovers", 1)
		}
		fctx, sp := obs.StartSpan(r.Context(), ep.span)
		err := rt.forward(sw, r.WithContext(fctx), m, g, ep, body, false)
		sp.End()
		if err == nil {
			return
		}
		rt.markBad(ep.url)
		lastErr = err
	}
	rt.fail(sw, http.StatusServiceUnavailable, "no_healthy_endpoints",
		"group %s: %v", g.Name, lastErr)
}

// handleWatch proxies a watch stream to the owner group, flushing frames as
// they arrive. The stream is registered so a shard-map flip that moves the
// database cuts it; the client's watch loop reconnects and re-routes.
func (rt *Router) handleWatch(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	sw, r, tr, root := rt.beginTrace(w, r)
	db := r.PathValue("name")
	var body []byte
	defer func() { rt.finishTrace(sw, tr, root, "watch", db, reqStart, body) }()
	m := rt.liveMap(sw)
	if m == nil {
		return
	}
	g := rt.owner(sw, m, db)
	if g == nil {
		return
	}
	body, ok := rt.readBody(sw, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ps := &proxiedStream{db: db, cancel: cancel}
	rt.streamsMu.Lock()
	rt.streams[ps] = struct{}{}
	rt.streamsMu.Unlock()
	rt.mStreams.Add(1)
	defer func() {
		rt.streamsMu.Lock()
		delete(rt.streams, ps)
		rt.streamsMu.Unlock()
		rt.mStreams.Add(-1)
	}()

	var lastErr error
	for i, ep := range rt.readOrder(g) {
		if i > 0 {
			rt.mFailovers.Inc()
			tr.Add("router_failovers", 1)
		}
		fctx, sp := obs.StartSpan(ctx, ep.span)
		err := rt.forward(sw, r.WithContext(fctx), m, g, ep, body, true)
		sp.End()
		if err == nil {
			return
		}
		rt.markBad(ep.url)
		lastErr = err
	}
	rt.fail(sw, http.StatusServiceUnavailable, "no_healthy_endpoints",
		"group %s: %v", g.Name, lastErr)
}

// Close cancels every proxied watch stream, so a graceful HTTP shutdown
// is not held open by long-lived subscriptions. Clients reconnect through
// whatever router the balancer offers next.
func (rt *Router) Close() {
	rt.streamsMu.Lock()
	defer rt.streamsMu.Unlock()
	for ps := range rt.streams {
		ps.cancel()
	}
}

// cutMovedStreams cancels proxied watch streams whose database changed
// owners between old and new, forcing their clients to reconnect against
// the new owner.
func (rt *Router) cutMovedStreams(old, new *Map) {
	if old == nil {
		return
	}
	rt.streamsMu.Lock()
	defer rt.streamsMu.Unlock()
	for ps := range rt.streams {
		og, err1 := old.Owner(ps.db)
		ng, err2 := new.Owner(ps.db)
		if err1 != nil || err2 != nil || og.Name != ng.Name {
			ps.cancel()
		}
	}
}

// readBody buffers the request body so the request can be replayed against
// another endpoint on failover: into a buffer of exactly Content-Length bytes
// when the client declared one, refusing an over-limit declaration unread.
// The buffer is not pooled: the transport may still be reading it after a
// failed attempt returns.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil || r.ContentLength == 0 {
		return nil, true
	}
	tooLarge := func() ([]byte, bool) {
		rt.fail(w, http.StatusRequestEntityTooLarge, "body_too_large",
			"request body exceeds %d bytes", maxProxyBody)
		return nil, false
	}
	var body []byte
	var err error
	if n := r.ContentLength; n > maxProxyBody {
		return tooLarge()
	} else if n > 0 {
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	} else {
		body, err = io.ReadAll(io.LimitReader(r.Body, maxProxyBody+1))
	}
	if err != nil {
		rt.fail(w, http.StatusBadRequest, "bad_request", "read body: %v", err)
		return nil, false
	}
	if len(body) > maxProxyBody {
		return tooLarge()
	}
	return body, true
}

// group returns the router's state for the named group, creating it on
// first use.
func (rt *Router) group(name string) *groupState {
	rt.groupMu.Lock()
	defer rt.groupMu.Unlock()
	gs := rt.groups[name]
	if gs == nil {
		gs = &groupState{requests: rt.met.Counter("fdbrouter_requests_total",
			"Requests proxied per shard group.", "group", name)}
		rt.groups[name] = gs
	}
	return gs
}

// readOrder returns the group's endpoints to try for a read: healthy ones
// first in round-robin order, then (as a last resort) the unhealthy ones —
// a probe verdict is a hint, not a ban. A group of one endpoint has one
// order, so nothing is rotated, probed or allocated for it.
func (rt *Router) readOrder(g *Group) []target {
	eps := g.targets
	if len(eps) == 1 {
		return eps
	}
	offset := int((rt.group(g.Name).next.Add(1) - 1) % uint64(len(eps)))
	order := make([]target, 0, len(eps))
	var suspect []target
	for i := range eps {
		if ep := eps[(offset+i)%len(eps)]; rt.isHealthy(ep.url) {
			order = append(order, ep)
		} else {
			suspect = append(suspect, ep)
		}
	}
	return append(order, suspect...)
}

// isHealthy returns the cached /readyz verdict for ep, probing when the
// cache entry expired.
func (rt *Router) isHealthy(ep string) bool {
	rt.healthMu.Lock()
	v, ok := rt.health[ep]
	rt.healthMu.Unlock()
	if ok && time.Now().Before(v.until) {
		return v.ok
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ep+"/readyz", nil)
	good := false
	if err == nil {
		if resp, err := rt.client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			good = resp.StatusCode == http.StatusOK
		}
	}
	rt.healthMu.Lock()
	rt.health[ep] = healthVerdict{ok: good, until: time.Now().Add(healthTTL)}
	rt.healthMu.Unlock()
	return good
}

// markBad caches a negative health verdict after a forwarding failure.
func (rt *Router) markBad(ep string) {
	rt.healthMu.Lock()
	rt.health[ep] = healthVerdict{ok: false, until: time.Now().Add(healthTTL)}
	rt.healthMu.Unlock()
}

// forward replays the incoming request against base and copies the response
// back. A non-nil error means nothing was written to w and the caller may
// retry elsewhere; once the upstream responds, its response — success or
// failure — is relayed as-is.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, m *Map, g *Group, ep target, body []byte, stream bool) error {
	url := ep.url + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	// The tenant identity rides through so the shard's admission control
	// charges the right bucket; the router itself stays tenant-agnostic.
	if key := r.Header.Get("X-Api-Key"); key != "" {
		req.Header.Set("X-Api-Key", key)
	}
	req.Header.Set("X-Funcdb-Router", m.via)
	// The forward-attempt span rides the traceparent header so the shard's
	// span tree joins this trace; a no-op when tracing is disabled.
	obs.InjectTraceparent(r.Context(), req.Header)
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rt.group(g.Name).requests.Inc()

	for _, h := range []string{"Content-Type", "X-Request-Id", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Funcdb-Shard", g.Name)
	if tr := obs.FromContext(r.Context()); tr != nil && !stream &&
		resp.StatusCode == http.StatusOK && wantsTrace(body) {
		// The client asked for a trace: buffer the shard's response, graft
		// its span tree under this forward span, and relay the merged tree —
		// one timeline from router through shard (and, inside the shard's
		// own report, any replica it consulted).
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		if err != nil {
			return err // nothing written yet; the caller may fail over
		}
		if merged, mok := mergeTraceBody(tr, obs.CurrentSpanID(r.Context()), raw); mok {
			raw = merged
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(raw)
		return nil
	}
	w.WriteHeader(resp.StatusCode)
	if stream {
		relay(&flushWriter{w: w}, resp.Body)
		return nil
	}
	if resp.StatusCode >= 400 {
		// Buffer the (small) error envelope and lift the shard's machine
		// code onto the response writer, so the router's flight-recorder
		// entry classifies a proxied budget kill or shed exactly like the
		// shard's own — not as a generic error.
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		if err == nil {
			if sw, ok := w.(*statusWriter); ok && sw.code == "" {
				sw.code = errorCode(raw)
			}
			w.Write(raw)
			return nil
		}
	}
	relay(w, resp.Body)
	return nil
}

type flushWriter struct {
	w http.ResponseWriter
}

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// ---- scatter-gather ----

type shardFailure struct {
	Group string `json:"group"`
	Error string `json:"error"`
}

type shardResult struct {
	group string
	raw   []byte
	err   error
}

// scatter runs fn against one healthy endpoint of every group concurrently,
// each leg bounded by the router's per-shard deadline, and returns results
// in group order.
func (rt *Router) scatter(ctx context.Context, m *Map, fn func(ctx context.Context, g *Group, ep string) ([]byte, error)) []shardResult {
	results := make([]shardResult, len(m.Groups))
	var wg sync.WaitGroup
	for i := range m.Groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := &m.Groups[i]
			legCtx, cancel := context.WithTimeout(ctx, rt.timeout)
			defer cancel()
			var raw []byte
			var err error
			for _, ep := range rt.readOrder(g) {
				raw, err = fn(legCtx, g, ep.url)
				if err == nil {
					break
				}
				rt.markBad(ep.url)
				if legCtx.Err() != nil {
					break
				}
			}
			results[i] = shardResult{group: g.Name, raw: raw, err: err}
		}(i)
	}
	wg.Wait()
	return results
}

func (rt *Router) shardGET(ctx context.Context, ep, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(ep, "/")+path, nil)
	if err != nil {
		return nil, err
	}
	return rt.shardDo(req)
}

func (rt *Router) shardPOST(ctx context.Context, ep, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, strings.TrimSuffix(ep, "/")+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return rt.shardDo(req)
}

func (rt *Router) shardDo(req *http.Request) ([]byte, error) {
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
			return nil, fmt.Errorf("%s: %s", env.Error.Code, env.Error.Message)
		}
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	return raw, nil
}

// handleListDBs merges GET /v1/dbs from every group. Groups that fail
// within the per-shard deadline are reported in the partial-failure
// envelope; the rest of the catalog still lists.
func (rt *Router) handleListDBs(w http.ResponseWriter, r *http.Request) {
	m := rt.liveMap(w)
	if m == nil {
		return
	}
	start := time.Now()
	results := rt.scatter(r.Context(), m, func(ctx context.Context, g *Group, ep string) ([]byte, error) {
		return rt.shardGET(ctx, ep, "/v1/dbs")
	})
	rt.mFanout.Observe(time.Since(start).Seconds())

	var dbs []json.RawMessage
	var failed []shardFailure
	for _, res := range results {
		if res.err != nil {
			failed = append(failed, shardFailure{Group: res.group, Error: res.err.Error()})
			continue
		}
		var body struct {
			Databases []json.RawMessage `json:"databases"`
		}
		if err := json.Unmarshal(res.raw, &body); err != nil {
			failed = append(failed, shardFailure{Group: res.group, Error: err.Error()})
			continue
		}
		dbs = append(dbs, body.Databases...)
	}
	// Merge order must not depend on which shard answered first.
	sort.Slice(dbs, func(i, j int) bool { return string(dbs[i]) < string(dbs[j]) })
	resp := map[string]any{"databases": dbs, "shardmap_version": m.Version}
	if dbs == nil {
		resp["databases"] = []json.RawMessage{}
	}
	if len(failed) > 0 {
		resp["partial"] = true
		resp["failed"] = failed
	}
	writeJSON(w, http.StatusOK, resp)
}

// crossBatchRequest is the router-only cross-database batch: each query
// names its database, the router groups them by owning shard, fans out one
// per-db batch per shard, and stitches the answers back in input order.
type crossBatchRequest struct {
	Queries []crossBatchQuery `json:"queries"`
}

type crossBatchQuery struct {
	DB    string `json:"db"`
	Query string `json:"query"`
}

type crossBatchItem struct {
	DB     string          `json:"db"`
	Query  string          `json:"query"`
	Answer *bool           `json:"answer,omitempty"`
	Error  *map[string]any `json:"error,omitempty"`
}

func (rt *Router) handleCrossBatch(w http.ResponseWriter, r *http.Request) {
	m := rt.liveMap(w)
	if m == nil {
		return
	}
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req crossBatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		rt.fail(w, http.StatusBadRequest, "bad_request", "invalid request body: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		rt.fail(w, http.StatusBadRequest, "bad_request", "missing queries")
		return
	}

	// Group query indexes by database; each db fans out as one per-db
	// batch against its owner group.
	byDB := make(map[string][]int)
	items := make([]crossBatchItem, len(req.Queries))
	for i, q := range req.Queries {
		items[i] = crossBatchItem{DB: q.DB, Query: q.Query}
		if q.DB == "" {
			items[i].Error = &map[string]any{"code": "bad_request", "message": "missing db"}
			continue
		}
		byDB[q.DB] = append(byDB[q.DB], i)
	}

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	failedGroups := make(map[string]string)
	for db, idxs := range byDB {
		wg.Add(1)
		go func(db string, idxs []int) {
			defer wg.Done()
			g, err := m.Owner(db)
			if err != nil {
				rt.setBatchError(items, idxs, "internal", err.Error(), &mu)
				return
			}
			queries := make([]string, len(idxs))
			for j, i := range idxs {
				queries[j] = req.Queries[i].Query
			}
			payload, _ := json.Marshal(map[string]any{"queries": queries})
			legCtx, cancel := context.WithTimeout(r.Context(), rt.timeout)
			defer cancel()
			var raw []byte
			for _, ep := range rt.readOrder(g) {
				raw, err = rt.shardPOST(legCtx, ep.url, "/v1/db/"+db+"/batch", payload)
				if err == nil {
					break
				}
				rt.markBad(ep.url)
				if legCtx.Err() != nil {
					break
				}
			}
			if err != nil {
				rt.setBatchError(items, idxs, "shard_unavailable", err.Error(), &mu)
				mu.Lock()
				failedGroups[g.Name] = err.Error()
				mu.Unlock()
				return
			}
			var resp struct {
				Results []struct {
					Answer bool            `json:"answer"`
					Error  *map[string]any `json:"error"`
				} `json:"results"`
			}
			if err := json.Unmarshal(raw, &resp); err != nil || len(resp.Results) != len(idxs) {
				rt.setBatchError(items, idxs, "bad_upstream", "malformed shard response", &mu)
				return
			}
			mu.Lock()
			for j, i := range idxs {
				if resp.Results[j].Error != nil {
					items[i].Error = resp.Results[j].Error
				} else {
					ans := resp.Results[j].Answer
					items[i].Answer = &ans
				}
			}
			mu.Unlock()
		}(db, idxs)
	}
	wg.Wait()
	rt.mFanout.Observe(time.Since(start).Seconds())

	resp := map[string]any{"results": items, "shardmap_version": m.Version}
	if len(failedGroups) > 0 {
		var failed []shardFailure
		for g, msg := range failedGroups {
			failed = append(failed, shardFailure{Group: g, Error: msg})
		}
		sort.Slice(failed, func(i, j int) bool { return failed[i].Group < failed[j].Group })
		resp["partial"] = true
		resp["failed"] = failed
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) setBatchError(items []crossBatchItem, idxs []int, code, msg string, mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	for _, i := range idxs {
		items[i].Error = &map[string]any{"code": code, "message": msg}
	}
}
