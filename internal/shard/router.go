package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/api"
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
	client  *api.Client
	log     *slog.Logger
	timeout time.Duration // per-shard deadline for fan-out legs
	handler http.Handler

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

type proxiedStream struct {
	db     string
	cancel context.CancelFunc
}

// Options configures a Router. The zero value works.
type Options struct {
	// ShardTimeout bounds each scatter-gather leg and the read of a request
	// body (default 5s).
	ShardTimeout time.Duration
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
}

const (
	// maxProxyBody bounds request bodies, which are buffered whole so they
	// can be replayed against another endpoint on failover.
	maxProxyBody = api.MaxBody
	// retryAfter is what the router's own transient refusals (no map yet, a
	// frozen database, an unreachable group) ask clients to wait, in seconds.
	retryAfter = 1
	// maxPooledBody bounds the request bodies bodyPool keeps: one upload
	// near maxProxyBody is read into a buffer that is dropped afterwards.
	maxPooledBody = 64 << 10
)

// bodyPool recycles the request bodies of the requests forwarded over the
// hop (pooledBody).
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// putBody hands a body read by pooledBody back to bodyPool. It is a
// variable so that a test can overwrite each body as it comes back.
var putBody = func(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// copyBufs recycles the buffers responses are relayed through. relay copies
// by hand because io.Copy would either allocate 32 KB per proxied request or
// — now that handlers write to net/http's own ResponseWriter — hand the copy
// to its ReadFrom, which sniffs, flushes early and fetches a second buffer.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

func relay(dst io.Writer, src io.Reader) {
	buf := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(buf)
	for {
		n, err := src.Read(buf[:])
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// NewRouter wires a Router over src.
func NewRouter(src *Source, opts Options) *Router {
	rt := &Router{
		src:     src,
		client:  api.NewClient(nil),
		log:     opts.Logger,
		timeout: opts.ShardTimeout,
		writes:  make(map[string]int),
		streams: make(map[*proxiedStream]struct{}),
		groups:  make(map[string]*groupState),
		met:     opts.Metrics,
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
		rt.rec = obs.NewRecorder(opts.TraceBuffer, obs.DefaultSlowTrace, opts.TraceSample)
		rt.rec.Instrument(rt.met, "fdbrouter_")
	}
	obs.RegisterBuildInfo(rt.met, "fdbrouter", "")

	src.OnChange(rt.cutMovedStreams)

	// Every endpoint runs on the pipeline fdbd's do (internal/api): request
	// ID, a trace adopting the client's traceparent under a "route" root
	// span, the error envelope, a flight-recorder entry. Endpoint names are
	// the shards' own, so one vocabulary filters both recorders.
	pipe := &api.Pipeline{Recorder: rt.rec, Log: rt.log, Node: "router", Span: "route"}
	mux := http.NewServeMux()
	route := func(pattern, endpoint string, h api.Handler) {
		mux.Handle(pattern, pipe.Wrap(endpoint, 0, h))
	}
	route("GET /healthz", "healthz", rt.handleHealthz)
	route("GET /readyz", "readyz", rt.handleReadyz)
	route("GET /metrics", "metrics", rt.handleMetrics)
	route("GET /v1/shardmap", "shardmap", rt.handleMapGet)
	route("PUT /v1/shardmap", "shardmap", rt.handleMapPut)
	route("GET /v1/dbs", "dbs", rt.handleListDBs)
	route("POST /v1/batch", "batch", rt.handleCrossBatch)
	route("PUT /v1/db/{name}", "put", rt.handleWrite)
	route("DELETE /v1/db/{name}", "delete", rt.handleWrite)
	route("POST /v1/db/{name}/facts", "facts", rt.handleWrite)
	route("GET /v1/db/{name}", "db", rt.handleRead)
	route("POST /v1/db/{name}/ask", "ask", rt.handleRead)
	route("POST /v1/db/{name}/answers", "answers", rt.handleRead)
	route("POST /v1/db/{name}/batch", "batch", rt.handleRead)
	route("GET /v1/db/{name}/explain", "explain", rt.handleRead)
	route("POST /v1/db/{name}/watch", "watch", rt.handleWatch)
	if rt.rec != nil {
		route("GET /debug/traces", "traces", rt.handleTraceList)
		route("GET /debug/traces/{id}", "traces", rt.handleTraceGet)
	}
	rt.handler = mux
	return rt
}

// Recorder exposes the router's flight recorder (nil when disabled), so the
// daemon and tests can inspect it.
func (rt *Router) Recorder() *obs.Recorder { return rt.rec }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.handler.ServeHTTP(w, r) }

// ---- admin and health endpoints ----

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "shardmap_version": rt.src.Version()})
	return nil
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	m := rt.src.Current()
	if m == nil {
		return api.Errorf(http.StatusServiceUnavailable, "no_shardmap", "no shard map installed yet").WithRetryAfter(retryAfter)
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ready", "shardmap_version": m.Version, "groups": len(m.Groups)})
	return nil
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return rt.met.WriteText(w)
}

func (rt *Router) handleMapGet(w http.ResponseWriter, r *http.Request) error {
	m := rt.src.Current()
	if m == nil {
		return api.Errorf(http.StatusNotFound, "no_shardmap", "no shard map installed yet")
	}
	raw, err := EncodeMap(m)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", api.ContentJSON)
	w.Write(raw)
	return nil
}

// handleMapPut installs a new shard map. With ?drain=<db> it additionally
// waits (bounded by ?drain_timeout, default 10s) until no write to that
// database is in flight through this router — the reshard flow freezes a
// database, drains it here, and only then trusts the source WAL tail to be
// final.
func (rt *Router) handleMapPut(w http.ResponseWriter, r *http.Request) error {
	raw, err := api.ReadBody(w, r, nil, maxProxyBody, api.InfoFrom(r.Context()).Start.Add(rt.timeout))
	if err != nil {
		return err
	}
	m, err := DecodeMap(raw)
	if err != nil {
		return api.Errorf(http.StatusBadRequest, "bad_shardmap", "%v", err)
	}
	if err := rt.src.Install(m); err != nil {
		return api.Errorf(http.StatusConflict, "stale_shardmap", "%v", err).WithRetryAfter(retryAfter)
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
	api.WriteJSON(w, http.StatusOK, map[string]any{"version": m.Version, "drained": drained})
	return nil
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

func (rt *Router) liveMap() (*Map, error) {
	m := rt.src.Current()
	if m == nil {
		return nil, api.Errorf(http.StatusServiceUnavailable, "no_shardmap", "router has no shard map yet").WithRetryAfter(retryAfter)
	}
	return m, nil
}

// placed resolves where a per-database request goes: the live map and, under
// it, the database's owner group.
func (rt *Router) placed(r *http.Request, in *api.Info) (*Map, *Group, error) {
	in.DB = r.PathValue("name")
	m, err := rt.liveMap()
	if err != nil {
		return nil, nil, err
	}
	g, err := m.Owner(in.DB)
	return m, g, err
}

// handleWrite proxies a mutation to the owner group's primary. No failover:
// there is exactly one writable daemon per group, and surfacing a retryable
// 502 beats guessing.
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) error {
	in := api.InfoFrom(r.Context())
	m, g, err := rt.placed(r, in)
	if err != nil {
		return err
	}
	db := in.DB
	if m.IsFrozen(db) {
		return api.Errorf(http.StatusConflict, "resharding",
			"database %q is being resharded; retry shortly", db).WithRetryAfter(retryAfter)
	}
	bp, err := rt.pooledBody(w, r, in)
	defer putBody(bp)
	if err != nil {
		return err
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
	err = rt.forward(w, r, in, m, g, 0, *bp, false)
	rt.mProxy.Observe(time.Since(start).Seconds())
	if err != nil {
		rt.client.MarkBad(g.urls[0])
		return api.Errorf(http.StatusBadGateway, "primary_unreachable",
			"group %s primary: %v", g.Name, err).WithRetryAfter(retryAfter)
	}
	return nil
}

// handleRead proxies a query to the owner group, balancing across its
// endpoints and failing over on transport errors.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) error {
	in := api.InfoFrom(r.Context())
	m, g, err := rt.placed(r, in)
	if err != nil {
		return err
	}
	bp, err := rt.pooledBody(w, r, in)
	defer putBody(bp)
	if err != nil {
		return err
	}
	start := time.Now()
	err = rt.balance(w, r, in, m, g, *bp, false)
	rt.mProxy.Observe(time.Since(start).Seconds())
	return err
}

// balance forwards the request to one endpoint of g: ready endpoints first,
// round-robin, moving on when an endpoint cannot be reached.
func (rt *Router) balance(w http.ResponseWriter, r *http.Request, in *api.Info, m *Map, g *Group, body []byte, stream bool) error {
	start := 0
	if len(g.urls) > 1 {
		start = int((rt.group(g.Name).next.Add(1) - 1) % uint64(len(g.urls)))
	}
	_, err := rt.client.Sweep(r.Context(), g.urls, start, func(attempt, i int) error {
		if attempt > 0 {
			rt.mFailovers.Inc()
			in.Trace.Add("router_failovers", 1)
		}
		return rt.forward(w, r, in, m, g, i, body, stream)
	})
	if err != nil {
		return api.Errorf(http.StatusServiceUnavailable, "no_healthy_endpoints",
			"group %s: %v", g.Name, err).WithRetryAfter(retryAfter)
	}
	return nil
}

// handleWatch proxies a watch stream to the owner group, flushing frames as
// they arrive. The stream is registered so a shard-map flip that moves the
// database cuts it; the client's watch loop reconnects and re-routes.
func (rt *Router) handleWatch(w http.ResponseWriter, r *http.Request) error {
	in := api.InfoFrom(r.Context())
	m, g, err := rt.placed(r, in)
	if err != nil {
		return err
	}
	body, err := rt.replayable(w, r, in)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	ps := &proxiedStream{db: in.DB, cancel: cancel}
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
	return rt.balance(w, r.WithContext(ctx), in, m, g, body, true)
}

// Close cancels every proxied watch stream, so a graceful HTTP shutdown
// is not held open by long-lived subscriptions, and closes the idle hop
// connections to the shards; a request still in flight finishes over its
// own. Clients reconnect through whatever router the balancer offers next.
func (rt *Router) Close() {
	rt.streamsMu.Lock()
	for ps := range rt.streams {
		ps.cancel()
	}
	rt.streamsMu.Unlock()
	rt.client.Close()
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

// replayable reads the request body so the request can be replayed against
// another endpoint on failover, with the one body reader both daemons share:
// into a buffer of exactly Content-Length bytes when the client declared one,
// refusing an over-limit declaration unread, and under the shard timeout, so
// a client that stalls mid-body is answered 504 and cut off. The buffer is
// not pooled: a watch body goes through net/http's transport, which may
// still be reading it after a failed attempt returns. The body is also where
// a client asks for a trace, which is noted on in.
func (rt *Router) replayable(w http.ResponseWriter, r *http.Request, in *api.Info) ([]byte, error) {
	body, err := api.ReadBody(w, r, nil, maxProxyBody, in.Start.Add(rt.timeout))
	in.Keep = err == nil && wantsTrace(body)
	return body, err
}

// pooledBody is replayable for a request forwarded over the hop, into a
// buffer from bodyPool. The hop client copies the body into its frame and
// has written the frame by the time it returns, so the body is done with
// once the handler's forwarding has returned: the caller hands it back then
// with putBody, whether the read failed or not.
func (rt *Router) pooledBody(w http.ResponseWriter, r *http.Request, in *api.Info) (*[]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	body, err := api.ReadBody(w, r, (*bp)[:0], maxProxyBody, in.Start.Add(rt.timeout))
	*bp = body
	in.Keep = err == nil && wantsTrace(body)
	return bp, err
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

// call is a request to a shard on behalf of r's client, sent over the hop:
// the tenant's key rides along so the shard's admission control charges the
// right bucket (the router itself stays tenant-agnostic), the shard-map
// version says who routed it, and — in Send — the current span becomes the
// shard's remote parent.
func call(r *http.Request, m *Map, method, url string, body []byte) api.Request {
	return api.Request{Method: method, URL: url, Body: body, Hop: true,
		ContentType: r.Header.Get("Content-Type"), APIKey: r.Header.Get(api.HeaderAPIKey), Via: m.via}
}

// forward replays the incoming request against endpoint i of g, under a span
// of its own, and copies the response back. A non-nil error means nothing was
// written to w and the caller may retry elsewhere; once the upstream
// responds, its response — success or failure — is relayed as-is.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, in *api.Info, m *Map, g *Group, i int, body []byte, stream bool) error {
	ctx, sp := obs.StartSpan(r.Context(), g.spans[i])
	defer sp.End()
	// The shard's base and the request's own path go as they are: the hop
	// never joins them, and only a query string is joined to the path.
	rq := call(r, m, r.Method, g.urls[i], body)
	if rq.URI = r.URL.Path; r.URL.RawQuery != "" {
		rq.URI += "?" + r.URL.RawQuery
	}
	rq.Hop = !stream // a watch stream stays on HTTP
	return rt.client.Forward(ctx, rq, func(resp *http.Response) error {
		return rt.relayed(ctx, w, in, g, stream, resp)
	})
}

// relayed copies a shard's response back to w, as forward describes. A hop
// response is the connection's, lent until relayed returns.
func (rt *Router) relayed(ctx context.Context, w http.ResponseWriter, in *api.Info, g *Group, stream bool, resp *http.Response) error {
	rt.group(g.Name).requests.Inc()

	// The shard's request ID replaces the router's own: it names the log
	// line that has the query in it. The values are copied into the
	// request's own header slots: the response's are the hop connection's.
	hdr := w.Header()
	for _, h := range [...]string{"Content-Type", api.HeaderRequestID, api.HeaderRetryAfter} {
		if v := resp.Header[h]; len(v) > 0 {
			in.SetHeader(hdr, h, v[0])
		}
	}
	if v := resp.Header[api.HeaderRequestID]; len(v) > 0 {
		in.RequestID = v[0]
	}
	in.SetHeader(hdr, api.HeaderShard, g.Name)
	if resp.StatusCode != http.StatusOK {
		in.Status = resp.StatusCode
	}
	if in.Trace != nil && in.Keep && !stream && resp.StatusCode == http.StatusOK {
		// The client asked for a trace: buffer the shard's response, graft
		// its span tree under this forward span, and relay the merged tree —
		// one timeline from router through shard (and, inside the shard's
		// own report, any replica it consulted).
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		if err != nil {
			return err // nothing written yet; the caller may fail over
		}
		if merged, mok := mergeTraceBody(in.Trace, obs.CurrentSpanID(ctx), raw); mok {
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
		// Buffer the (small) error envelope and note the shard's machine
		// code, so the router's flight-recorder entry classifies a proxied
		// budget kill or shed exactly like the shard's own — not as a
		// generic error.
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		if err == nil {
			in.Code = api.DecodeError(resp.StatusCode, resp.Header, raw).Code
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

// leg asks one group on behalf of r's client, within the per-shard deadline:
// ready endpoints first, moving on only when an endpoint cannot be reached or
// fails — a shard's well-formed refusal (an unknown database, a shed) is the
// group's answer, and is neither replayed on a replica nor held against the
// endpoint.
func (rt *Router) leg(r *http.Request, m *Map, g *Group, method, path string, body []byte) (raw []byte, err error) {
	ctx, cancel := context.WithTimeout(r.Context(), rt.timeout)
	defer cancel()
	_, err = rt.client.Sweep(ctx, g.urls, 0, func(_, i int) error {
		raw, err = rt.client.Do(ctx, call(r, m, method, g.urls[i]+path, body))
		return err
	})
	return raw, err
}

// handleListDBs merges GET /v1/dbs from every group. Groups that fail
// within the per-shard deadline are reported in the partial-failure
// envelope; the rest of the catalog still lists.
func (rt *Router) handleListDBs(w http.ResponseWriter, r *http.Request) error {
	m, err := rt.liveMap()
	if err != nil {
		return err
	}
	start := time.Now()
	raws, errs := make([][]byte, len(m.Groups)), make([]error, len(m.Groups))
	var wg sync.WaitGroup
	for i := range m.Groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raws[i], errs[i] = rt.leg(r, m, &m.Groups[i], http.MethodGet, "/v1/dbs", nil)
		}()
	}
	wg.Wait()
	rt.mFanout.Observe(time.Since(start).Seconds())

	var dbs []json.RawMessage
	var failed []shardFailure
	for i, g := range m.Groups {
		var body struct {
			Databases []json.RawMessage `json:"databases"`
		}
		if err := errs[i]; err != nil {
			failed = append(failed, shardFailure{Group: g.Name, Error: api.Detail(err)})
		} else if err := json.Unmarshal(raws[i], &body); err != nil {
			failed = append(failed, shardFailure{Group: g.Name, Error: err.Error()})
		} else {
			dbs = append(dbs, body.Databases...)
		}
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
	api.WriteJSON(w, http.StatusOK, resp)
	return nil
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
	DB     string         `json:"db"`
	Query  string         `json:"query"`
	Answer *bool          `json:"answer,omitempty"`
	Error  *api.ErrorBody `json:"error,omitempty"`
}

func (rt *Router) handleCrossBatch(w http.ResponseWriter, r *http.Request) error {
	m, err := rt.liveMap()
	if err != nil {
		return err
	}
	body, err := rt.replayable(w, r, api.InfoFrom(r.Context()))
	if err != nil {
		return err
	}
	var req crossBatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return api.Errorf(http.StatusBadRequest, "bad_request", "invalid request body: %v", err)
	}
	if len(req.Queries) == 0 {
		return api.Errorf(http.StatusBadRequest, "bad_request", "missing queries")
	}

	// Group query indexes by database; each db fans out as one per-db
	// batch against its owner group.
	byDB := make(map[string][]int)
	items := make([]crossBatchItem, len(req.Queries))
	for i, q := range req.Queries {
		items[i] = crossBatchItem{DB: q.DB, Query: q.Query}
		if q.DB == "" {
			items[i].Error = &api.ErrorBody{Code: "bad_request", Message: "missing db"}
			continue
		}
		byDB[q.DB] = append(byDB[q.DB], i)
	}

	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	failedGroups := make(map[string]string)
	// fail marks every query of one database failed, under mu.
	fail := func(idxs []int, code, msg string) {
		for _, i := range idxs {
			items[i].Error = &api.ErrorBody{Code: code, Message: msg}
		}
	}
	for db, idxs := range byDB {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := m.Owner(db)
			var raw []byte
			if err == nil {
				queries := make([]string, len(idxs))
				for j, i := range idxs {
					queries[j] = req.Queries[i].Query
				}
				payload, _ := json.Marshal(map[string]any{"queries": queries})
				raw, err = rt.leg(r, m, g, http.MethodPost, "/v1/db/"+db+"/batch", payload)
			}
			var resp struct {
				Results []struct {
					Answer bool           `json:"answer"`
					Error  *api.ErrorBody `json:"error"`
				} `json:"results"`
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case g == nil:
				fail(idxs, "internal", err.Error())
			case err != nil:
				fail(idxs, "shard_unavailable", api.Detail(err))
				failedGroups[g.Name] = api.Detail(err)
			case json.Unmarshal(raw, &resp) != nil || len(resp.Results) != len(idxs):
				fail(idxs, "bad_upstream", "malformed shard response")
			default:
				for j, i := range idxs {
					if resp.Results[j].Error != nil {
						items[i].Error = resp.Results[j].Error
					} else {
						items[i].Answer = &resp.Results[j].Answer
					}
				}
			}
		}()
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
	api.WriteJSON(w, http.StatusOK, resp)
	return nil
}
