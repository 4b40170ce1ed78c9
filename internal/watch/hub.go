package watch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/obs"
	"funcdb/internal/query"
	"funcdb/internal/registry"
)

// ErrTooManyStreams reports a subscription rejected by the hub's global or
// per-database stream cap.
var ErrTooManyStreams = errors.New("watch: too many active streams")

// ErrTenantStreams reports a subscription rejected by the per-tenant cap —
// a rate-limiting condition on one tenant, deliberately distinct from
// ErrTooManyStreams (a capacity condition on the node), so servers can
// render it as 429 rate_limited rather than too_many_streams.
var ErrTenantStreams = errors.New("watch: tenant watch cap reached")

// ErrClosed reports a subscription against a hub that has shut down.
var ErrClosed = errors.New("watch: hub closed")

// Default limits; Options fields override them.
const (
	DefaultQueueLen        = 64
	DefaultMaxStreams      = 256
	DefaultMaxStreamsPerDB = 128
)

// deltaTimeout bounds one stream's evaluation per version bump; an
// evaluation that exceeds it degrades to a resync frame.
const deltaTimeout = 2 * time.Second

// Options configures a Hub.
type Options struct {
	// Reg is the catalog whose version bumps drive the hub. Required.
	Reg *registry.Registry
	// LSN reports the journal position of the most recently applied
	// mutation — store.LastLSN on a primary, Replica.JournalLSN on a
	// replica, nil for an ephemeral daemon (frames then carry LSN 0).
	LSN func() uint64
	// QueueLen bounds each stream's frame queue; a consumer that lets it
	// fill is disconnected (slow_consumer), so hub memory per stream is
	// bounded regardless of consumer speed.
	QueueLen int
	// MaxStreams caps active streams hub-wide.
	MaxStreams int
	// MaxStreamsPerDB caps active streams per database.
	MaxStreamsPerDB int
	// TenantCap, when set, returns the cap on concurrent streams held by
	// one tenant (0 = uncapped). Daemons wire the admission controller's
	// WatchCap here so the per-tenant policy file governs watches too.
	TenantCap func(tenant string) int
	// Budget, when set, returns a fresh work budget for one evaluation of a
	// tenant's stream (nil = unlimited). Daemons wire the admission
	// controller's Budget, so a stream's evaluations are bounded like the
	// tenant's answers requests, derivation depth included; one that runs
	// out degrades to a resync.
	Budget func(tenant string) *obs.Budget
}

// Hub fans registry version bumps out to subscribed query streams. One
// worker goroutine per watched database evaluates all of that database's
// subscriptions against a single pinned snapshot per bump; subscribers
// read frames from bounded queues. Wire Notify as the registry's notifier.
type Hub struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex // guards dbs and nextID; ordered before dbWatch.mu
	dbs    map[string]*dbWatch
	nextID uint64

	nstreams  atomic.Int64
	frames    atomic.Int64
	resyncs   atomic.Int64
	slowDrops atomic.Int64
	delta     *obs.Histogram // nil until Instrument

	// tmu guards perTenant. It is a leaf lock: taken alone, never while
	// holding mu or a dbWatch's mu, so stream close (which may run under
	// either) can decrement safely.
	tmu       sync.Mutex
	perTenant map[string]int
}

// NewHub returns a running hub; it spawns workers lazily per watched
// database and must be shut down with Close.
func NewHub(opts Options) *Hub {
	if opts.QueueLen <= 0 {
		opts.QueueLen = DefaultQueueLen
	}
	if opts.MaxStreams <= 0 {
		opts.MaxStreams = DefaultMaxStreams
	}
	if opts.MaxStreamsPerDB <= 0 {
		opts.MaxStreamsPerDB = DefaultMaxStreamsPerDB
	}
	h := &Hub{opts: opts, dbs: make(map[string]*dbWatch), perTenant: make(map[string]int)}
	h.ctx, h.cancel = context.WithCancel(context.Background())
	return h
}

// Close ends every stream (reason hub_closed) and waits for the workers.
func (h *Hub) Close() {
	h.cancel()
	h.wg.Wait()
}

// LSN reports the serving node's current journal position (0 without one).
func (h *Hub) LSN() uint64 {
	if h.opts.LSN == nil {
		return 0
	}
	return h.opts.LSN()
}

// Streams reports the number of active streams.
func (h *Hub) Streams() int { return int(h.nstreams.Load()) }

// Counters exposes the hub's lifetime counters (tests and benchmarks).
func (h *Hub) Counters() map[string]int64 {
	return map[string]int64{
		"frames_total":                    h.frames.Load(),
		"resyncs_total":                   h.resyncs.Load(),
		"slow_consumer_disconnects_total": h.slowDrops.Load(),
	}
}

// Instrument registers the hub's gauges, counters and delta-latency
// histogram on r.
func (h *Hub) Instrument(r *obs.Registry) {
	h.delta = r.Histogram("funcdbd_watch_delta_seconds",
		"Per-stream evaluation latency from version bump to frame emission, in seconds.",
		obs.DurationBuckets)
	r.GaugeFunc("funcdbd_watch_streams", "Active watch streams.",
		func() float64 { return float64(h.nstreams.Load()) })
	r.Source("funcdbd_watch_", "counter", "Watch stream frame counters.", h.Counters)
}

// Notify marks name dirty at the current journal position and kicks its
// worker. It is the registry.Notifier: called under the registry writer
// lock, in commit order, so it only records state and never blocks. The
// store's observer journals before the registry installs, which makes the
// LSN captured here cover the mutation that produced the bump.
func (h *Hub) Notify(name string, version uint64) {
	_ = version // the worker re-reads the live entry; 0 means removal
	lsn := h.LSN()
	h.mu.Lock()
	dw := h.dbs[name]
	h.mu.Unlock()
	if dw == nil {
		return
	}
	dw.mu.Lock()
	dw.bumped = true
	if lsn > dw.lsn {
		dw.lsn = lsn
	}
	dw.mu.Unlock()
	dw.kickNow()
}

// acquireTenant counts one stream against tenant's cap; it returns
// ErrTenantStreams when the cap is already reached. Anonymous streams
// (empty tenant) are never capped per-tenant — the global and per-database
// caps still apply.
func (h *Hub) acquireTenant(tenant string) error {
	if tenant == "" {
		return nil
	}
	h.tmu.Lock()
	defer h.tmu.Unlock()
	if h.opts.TenantCap != nil {
		if cap := h.opts.TenantCap(tenant); cap > 0 && h.perTenant[tenant] >= cap {
			return fmt.Errorf("%w: tenant %q holds %d streams (max %d)",
				ErrTenantStreams, tenant, h.perTenant[tenant], cap)
		}
	}
	h.perTenant[tenant]++
	return nil
}

func (h *Hub) releaseTenant(tenant string) {
	if tenant == "" {
		return
	}
	h.tmu.Lock()
	if h.perTenant[tenant] > 1 {
		h.perTenant[tenant]--
	} else {
		delete(h.perTenant, tenant)
	}
	h.tmu.Unlock()
}

// Subscribe registers a live query against database db for tenant ("" is
// anonymous). A named tenant's streams count against Options.TenantCap on
// top of the global and per-database caps. A fresh entry's compile runs
// here, under ctx: the subscribing request's budget bounds it, and it stops
// when the subscriber leaves or the hub closes. The query is parsed (and
// classified uniform/non-uniform) up front; evaluation errors surface on
// the stream's first frame instead. The returned stream's first frame is an
// init carrying the full bounded answer set.
func (h *Hub) Subscribe(ctx context.Context, db, src string, depth, limit int, tenant string) (*Stream, error) {
	e, ok := h.opts.Reg.Get(db)
	if !ok {
		return nil, fmt.Errorf("%w: %q", registry.ErrNotFound, db)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(h.ctx, cancel)()
	snap, err := e.Snapshot(ctx)
	if h.ctx.Err() != nil {
		return nil, ErrClosed
	}
	if err != nil {
		return nil, err
	}
	q, err := snap.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	uniform := query.IsUniform(q)

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ctx.Err() != nil {
		return nil, ErrClosed
	}
	if int(h.nstreams.Load()) >= h.opts.MaxStreams {
		return nil, fmt.Errorf("%w (max %d)", ErrTooManyStreams, h.opts.MaxStreams)
	}
	dw := h.dbs[db]
	if dw == nil {
		dw = &dbWatch{hub: h, name: db, kick: make(chan struct{}, 1)}
		h.dbs[db] = dw
		h.wg.Add(1)
		go dw.run()
	}
	dw.mu.Lock()
	if len(dw.streams)+len(dw.joins) >= h.opts.MaxStreamsPerDB {
		dw.mu.Unlock()
		return nil, fmt.Errorf("%w (max %d per database)", ErrTooManyStreams, h.opts.MaxStreamsPerDB)
	}
	if err := h.acquireTenant(tenant); err != nil {
		dw.mu.Unlock()
		return nil, err
	}
	h.nextID++
	st := &Stream{
		ID:      h.nextID,
		DB:      db,
		Query:   src,
		Depth:   depth,
		Limit:   limit,
		Uniform: uniform,
		tenant:  tenant,
		hub:     h,
		frames:  make(chan Frame, h.opts.QueueLen),
		closed:  make(chan struct{}),
	}
	dw.joins = append(dw.joins, st)
	dw.mu.Unlock()
	h.nstreams.Add(1)
	dw.kickNow()
	return st, nil
}

// Unsubscribe detaches a stream (idempotent); the consumer went away.
func (h *Hub) Unsubscribe(st *Stream) {
	st.gone.Store(true)
	st.close("", nil)
	h.mu.Lock()
	dw := h.dbs[st.DB]
	h.mu.Unlock()
	if dw != nil {
		dw.kickNow() // let the worker prune, and retire if now idle
	}
}

// Stream is one live subscription. Frames arrive on Frames(); Closed()
// fires exactly once, after which Reason and Err explain the shutdown.
type Stream struct {
	ID      uint64
	DB      string
	Query   string
	Depth   int
	Limit   int
	Uniform bool

	tenant string // attribution for the per-tenant cap; "" = anonymous

	hub    *Hub
	frames chan Frame
	closed chan struct{}

	closeOnce sync.Once
	reason    string
	err       error
	gone      atomic.Bool

	// worker-owned diff state: the rendered answer set of the last frame,
	// and whether it is complete enough to diff against.
	last      map[string]query.Tuple
	lastKnown bool
}

// Frames returns the stream's frame queue.
func (st *Stream) Frames() <-chan Frame { return st.frames }

// Closed fires when the stream ends; no more frames will be queued.
func (st *Stream) Closed() <-chan struct{} { return st.closed }

// Reason reports why the stream closed. Valid after Closed fires.
func (st *Stream) Reason() string { return st.reason }

// Err reports the error that closed the stream, if any. Valid after
// Closed fires.
func (st *Stream) Err() error { return st.err }

func (st *Stream) close(reason string, err error) {
	st.closeOnce.Do(func() {
		st.reason = reason
		st.err = err
		st.hub.nstreams.Add(-1)
		st.hub.releaseTenant(st.tenant)
		close(st.closed)
	})
}

func (st *Stream) isClosed() bool {
	select {
	case <-st.closed:
		return true
	default:
		return false
	}
}

// dbWatch is one watched database: a worker goroutine plus its streams.
type dbWatch struct {
	hub  *Hub
	name string
	kick chan struct{} // capacity 1; coalesces bursts of bumps

	mu      sync.Mutex
	streams []*Stream // established (init frame delivered)
	joins   []*Stream // subscribed, awaiting their init frame
	lsn     uint64    // highest journal position notified
	bumped  bool
}

func (dw *dbWatch) kickNow() {
	select {
	case dw.kick <- struct{}{}:
	default:
	}
}

func (dw *dbWatch) run() {
	defer dw.hub.wg.Done()
	for {
		select {
		case <-dw.hub.ctx.Done():
			dw.closeAll(ReasonClosed, nil)
			return
		case <-dw.kick:
		}
		if dw.process() {
			return
		}
	}
}

// process handles one batch of pending work: joins get init frames,
// established streams get delta/resync frames for any version bump, gone
// streams are pruned. Returns true when the worker retired (no streams
// left and none pending).
func (dw *dbWatch) process() (retired bool) {
	h := dw.hub
	dw.mu.Lock()
	joins := dw.joins
	dw.joins = nil
	bumped := dw.bumped
	dw.bumped = false
	lsn := dw.lsn
	dw.mu.Unlock()

	if len(joins) > 0 || bumped {
		if cur := h.LSN(); cur > lsn {
			lsn = cur
		}
		e, ok := h.opts.Reg.Get(dw.name)
		switch {
		case !ok:
			dw.closeAll(ReasonDeleted, fmt.Errorf("%w: %q", registry.ErrNotFound, dw.name))
			for _, st := range joins {
				st.close(ReasonDeleted, fmt.Errorf("%w: %q", registry.ErrNotFound, dw.name))
			}
		default:
			snap, err := e.Snapshot(h.ctx)
			for _, st := range joins {
				if err != nil {
					st.close("", err)
					continue
				}
				dw.initStream(st, e, snap, lsn)
			}
			if bumped && err == nil {
				dw.mu.Lock()
				established := append([]*Stream(nil), dw.streams...)
				dw.mu.Unlock()
				for _, st := range established {
					if st.gone.Load() || st.isClosed() {
						continue
					}
					dw.bumpStream(st, e, snap, lsn)
				}
			}
		}
	}

	// Prune closed/gone streams, then retire if nothing is left. The
	// retire check nests hub.mu before dw.mu (the global lock order) so a
	// concurrent Subscribe either lands its join before the check — which
	// keeps the worker alive — or finds the map slot empty and starts a
	// fresh worker.
	dw.mu.Lock()
	live := dw.streams[:0]
	for _, st := range dw.streams {
		if !st.isClosed() {
			live = append(live, st)
		}
	}
	dw.streams = live
	dw.mu.Unlock()

	h.mu.Lock()
	dw.mu.Lock()
	idle := len(dw.streams) == 0 && len(dw.joins) == 0 && !dw.bumped
	if idle {
		delete(h.dbs, dw.name)
	}
	dw.mu.Unlock()
	h.mu.Unlock()
	return idle
}

// initStream evaluates a freshly subscribed stream and queues its init
// frame; an evaluation error closes the stream instead (the HTTP handler
// maps it onto the response status).
func (dw *dbWatch) initStream(st *Stream, e *registry.Entry, snap *core.Snapshot, lsn uint64) {
	start := time.Now()
	set, truncated, err := dw.evalSet(st, snap)
	if err != nil {
		st.close("", err)
		return
	}
	st.last = set
	st.lastKnown = !truncated
	f := Frame{
		Type:      FrameInit,
		DB:        dw.name,
		Version:   e.Version,
		LSN:       lsn,
		Add:       sorted(set, nil),
		Truncated: truncated,
	}
	dw.mu.Lock()
	dw.streams = append(dw.streams, st)
	dw.mu.Unlock()
	dw.send(st, f)
	dw.hub.observeDelta(time.Since(start))
}

// bumpStream turns one version bump into one frame for one stream: a
// precise delta when the previous and current sets are both completely
// known, a resync otherwise. Non-uniform queries always resync — without
// an incremental specification (Theorem 5.1) a recomputed set is the only
// trustworthy artifact, and shipping it wholesale can never invent or
// lose answers the way a bad diff could.
func (dw *dbWatch) bumpStream(st *Stream, e *registry.Entry, snap *core.Snapshot, lsn uint64) {
	start := time.Now()
	set, truncated, err := dw.evalSet(st, snap)
	f := Frame{DB: dw.name, Version: e.Version, LSN: lsn}
	switch {
	case err != nil:
		// The evaluation itself failed (most likely the per-tick budget);
		// the subscriber's state is now unknown, so tell it to resync and
		// diff from scratch on the next bump.
		f.Type = FrameResync
		f.Truncated = true
		f.Reason = ReasonBudget
		st.last = nil
		st.lastKnown = false
	case !st.Uniform || truncated || !st.lastKnown:
		f.Type = FrameResync
		f.Add = sorted(set, nil)
		f.Truncated = truncated
		switch {
		case !st.Uniform:
			f.Reason = ReasonNonUniform
		case truncated:
			f.Reason = ReasonTruncated
		default:
			f.Reason = ReasonTruncated // previous state was incomplete
		}
		st.last = set
		st.lastKnown = !truncated
	default:
		f.Type = FrameDelta
		f.Add, f.Del = Diff(st.last, set)
		st.last = set
		st.lastKnown = true
	}
	if f.Type == FrameDelta && len(f.Add) == 0 && len(f.Del) == 0 {
		return // the bump did not move this query's answer set
	}
	if f.Type == FrameResync {
		dw.hub.resyncs.Add(1)
	}
	dw.send(st, f)
	dw.hub.observeDelta(time.Since(start))
}

// evalSet evaluates the stream's query against the pinned snapshot and
// renders the bounded answer set, under the hub's per-tick time budget.
func (dw *dbWatch) evalSet(st *Stream, snap *core.Snapshot) (map[string]query.Tuple, bool, error) {
	ctx, cancel := context.WithTimeout(dw.hub.ctx, deltaTimeout)
	defer cancel()
	if dw.hub.opts.Budget != nil {
		ctx = obs.WithBudget(ctx, dw.hub.opts.Budget(st.tenant))
	}
	ans, err := snap.Answers(ctx, st.Query)
	if err != nil {
		return nil, false, err
	}
	tuples, truncated, err := ans.Render(ctx, st.Depth, st.Limit)
	if err != nil {
		return nil, false, err
	}
	set := make(map[string]query.Tuple, len(tuples))
	for _, tu := range tuples {
		set[tu.Key()] = tu
	}
	return set, truncated, nil
}

// send queues one frame without ever blocking the worker: a full queue
// means the consumer is not keeping up, and the stream is cut (the client
// reconnects and resyncs) rather than buffered without bound.
func (dw *dbWatch) send(st *Stream, f Frame) {
	if st.gone.Load() || st.isClosed() {
		return
	}
	select {
	case st.frames <- f:
		dw.hub.frames.Add(1)
	default:
		dw.hub.slowDrops.Add(1)
		st.close(ReasonSlowConsumer, nil)
	}
}

// closeAll ends every stream of this database (removal or hub shutdown).
func (dw *dbWatch) closeAll(reason string, err error) {
	dw.mu.Lock()
	streams := append(append([]*Stream(nil), dw.streams...), dw.joins...)
	dw.streams, dw.joins = nil, nil
	dw.mu.Unlock()
	for _, st := range streams {
		st.close(reason, err)
	}
}

func (h *Hub) observeDelta(d time.Duration) {
	if h.delta != nil {
		h.delta.Observe(d.Seconds())
	}
}
