// Package replica follows a primary funcdbd over its replication
// endpoints: it bootstraps the local catalog from a shipped snapshot,
// journals the primary's WAL records into its own store through the same
// recovery machinery a standalone daemon uses, and keeps following the
// stream — so a replica's catalog, versions and answers are the
// primary's, shifted by a measured lag.
//
// The loop is deliberately single-threaded: one goroutine fetches,
// journals, applies and (periodically) snapshots, so the local journal
// position and the catalog state can never be captured out of step.
// Everything around it — reconnection with jittered backoff, resuming
// from the last applied position, full re-bootstrap when the primary has
// compacted past our cursor or diverged — is that goroutine's retry
// policy, not extra concurrency.
package replica

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync/atomic"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/obs"
	"funcdb/internal/registry"
	"funcdb/internal/store"
)

// Options configures a replica. Primary and Store.Dir are required.
type Options struct {
	// Primary is the base URL of the primary daemon, e.g.
	// "http://10.0.0.1:8080".
	Primary string
	// Store configures the local journal. SnapshotEvery is honored by the
	// apply loop itself (the background trigger is disabled so snapshots
	// never interleave with a half-applied record).
	Store store.Options
	// ReadyMaxLag is the largest record lag at which Ready still reports
	// success; zero means DefaultReadyMaxLag.
	ReadyMaxLag uint64
	// StallTimeout reconnects a stream that has delivered nothing — not
	// even a heartbeat — for this long; zero means DefaultStallTimeout.
	StallTimeout time.Duration
	// BackoffMin/BackoffMax bound the jittered reconnect backoff; zero
	// means the defaults.
	BackoffMin, BackoffMax time.Duration
	// HTTP is the client used for all primary requests; nil means the
	// process-wide default. Both requests are streams, bounded by the
	// stall watchdog rather than a deadline.
	HTTP *api.Client
	// Logf receives connection and replay notices; defaults to the
	// process-wide structured logger (slog) at Info level.
	Logf func(format string, args ...any)
	// Recorder, when set, receives one flight-recorder entry per
	// replication episode (bootstrap + stream), traced span by span, and
	// the episode's trace ID rides the traceparent header on every request
	// to the primary — so a broken episode shows up in both processes'
	// recorders under one ID. Typically the daemon's own recorder.
	Recorder *obs.Recorder
}

// Defaults for Options' zero values.
const (
	DefaultReadyMaxLag  = 256
	DefaultStallTimeout = 15 * time.Second
	DefaultBackoffMin   = 100 * time.Millisecond
	DefaultBackoffMax   = 5 * time.Second
)

// Replica is a running replication follower. Create with Start; the
// registry passed to Start fills with the primary's catalog as the
// replica bootstraps and follows.
type Replica struct {
	reg  *registry.Registry
	opts Options
	logf func(string, ...any)

	st *store.Store // nil until bootstrap; owned by the run goroutine

	cancel context.CancelFunc
	done   chan struct{}

	bootstrapped atomic.Bool
	connected    atomic.Bool
	applied      atomic.Uint64
	journalLSN   atomic.Uint64
	primaryLast  atomic.Uint64
	lagMillis    atomic.Int64
	reconnects   atomic.Int64
	rebootstraps atomic.Int64
	applyErrors  atomic.Int64
	sinceSnap    int // records applied since the last local snapshot
}

// Start launches the replication loop and returns immediately; the
// catalog fills in as bootstrap and streaming proceed. Gate traffic with
// Ready. Stop with Close.
func Start(reg *registry.Registry, opts Options) (*Replica, error) {
	if opts.Primary == "" {
		return nil, errors.New("replica: missing primary URL")
	}
	if opts.Store.Dir == "" {
		return nil, errors.New("replica: missing data directory")
	}
	if opts.ReadyMaxLag == 0 {
		opts.ReadyMaxLag = DefaultReadyMaxLag
	}
	if opts.StallTimeout == 0 {
		opts.StallTimeout = DefaultStallTimeout
	}
	if opts.BackoffMin == 0 {
		opts.BackoffMin = DefaultBackoffMin
	}
	if opts.BackoffMax == 0 {
		opts.BackoffMax = DefaultBackoffMax
	}
	r := &Replica{reg: reg, opts: opts, logf: opts.Logf, done: make(chan struct{})}
	if r.logf == nil {
		r.logf = func(format string, args ...any) {
			slog.Info(fmt.Sprintf(format, args...), "component", "replica")
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go r.run(ctx)
	return r, nil
}

// Close stops the loop and closes the local store. The final store state
// is durable; a restart resumes from the last applied position.
func (r *Replica) Close() error {
	r.cancel()
	<-r.done
	if r.st != nil {
		return r.st.Close()
	}
	return nil
}

// Ready reports whether the replica should serve traffic: bootstrapped,
// connected to the primary, and within the configured lag bound.
func (r *Replica) Ready() error {
	switch {
	case !r.bootstrapped.Load():
		return errors.New("replica: bootstrapping from primary")
	case !r.connected.Load():
		return errors.New("replica: not connected to primary")
	}
	if lag := r.lagRecords(); lag > r.opts.ReadyMaxLag {
		return fmt.Errorf("replica: %d records behind primary (max %d)", lag, r.opts.ReadyMaxLag)
	}
	return nil
}

// Applied returns the highest primary LSN journaled and applied locally.
func (r *Replica) Applied() uint64 { return r.applied.Load() }

// JournalLSN returns the highest primary LSN journaled locally. It is
// stored between journaling and catalog apply, so a registry notifier
// firing during the apply already sees the LSN of the mutation that
// produced the bump — mirroring the primary's own write-ahead order. Safe
// from any goroutine; a watch hub on a replica uses it to tag frames.
func (r *Replica) JournalLSN() uint64 { return r.journalLSN.Load() }

func (r *Replica) lagRecords() uint64 {
	last, applied := r.primaryLast.Load(), r.applied.Load()
	if last <= applied {
		return 0
	}
	return last - applied
}

// Gauges exposes replication state for /metrics; plug into
// server.Config.ExtraGauges (merge with the store's own gauges).
func (r *Replica) Gauges() map[string]int64 {
	g := map[string]int64{
		"repl_bootstrapped":       b2i(r.bootstrapped.Load()),
		"repl_connected":          b2i(r.connected.Load()),
		"repl_applied_lsn":        int64(r.applied.Load()),
		"repl_lag_records":        int64(r.lagRecords()),
		"repl_lag_ms":             r.lagMillis.Load(),
		"repl_reconnects_total":   r.reconnects.Load(),
		"repl_rebootstraps_total": r.rebootstraps.Load(),
		"repl_apply_errors_total": r.applyErrors.Load(),
	}
	if st := r.st; st != nil && r.bootstrapped.Load() {
		for k, v := range st.Gauges() {
			g[k] = v
		}
	}
	return g
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// run is the whole replica: bootstrap once, then stream forever, backing
// off between attempts. Every error path funnels here and turns into a
// retry; only ctx cancellation ends the loop.
func (r *Replica) run(ctx context.Context) {
	defer close(r.done)
	backoff := r.opts.BackoffMin
	for ctx.Err() == nil {
		err := r.session(ctx)
		if ctx.Err() != nil {
			return
		}
		r.connected.Store(false)
		if err != nil {
			r.logf("replica: session ended: %v (reconnecting in ~%v)", err, backoff)
		}
		r.reconnects.Add(1)
		// Full jitter: sleep a uniform fraction of the current backoff so
		// a herd of replicas does not reconnect in lockstep.
		d := time.Duration(rand.Int63n(int64(backoff)) + int64(r.opts.BackoffMin))
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
		if backoff *= 2; backoff > r.opts.BackoffMax {
			backoff = r.opts.BackoffMax
		}
	}
}

// session runs one connected episode: ensure we are bootstrapped, then
// stream until the connection breaks or the primary tells us our
// position is gone. Each episode runs under its own trace and lands in
// the flight recorder when one is configured.
func (r *Replica) session(ctx context.Context) error {
	start := time.Now()
	var tr *obs.Trace
	if r.opts.Recorder != nil {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	err := r.episode(ctx)
	if tr != nil {
		outcome := obs.OutcomeOK
		if err != nil && !errors.Is(err, context.Canceled) {
			outcome = obs.OutcomeError
		}
		r.opts.Recorder.Offer(obs.TraceEntry{
			ID:         tr.ID(),
			TimeUnixMS: start.UnixMilli(),
			DurUS:      time.Since(start).Microseconds(),
			Endpoint:   "repl_session",
			Outcome:    outcome,
			Node:       "replica",
		}, tr)
	}
	return err
}

func (r *Replica) episode(ctx context.Context) error {
	if !r.bootstrapped.Load() {
		bctx, sp := obs.StartSpan(ctx, "bootstrap")
		err := r.bootstrap(bctx)
		sp.End()
		if err != nil {
			return fmt.Errorf("bootstrap: %w", err)
		}
	}
	sctx, sp := obs.StartSpan(ctx, "stream")
	err := r.stream(sctx)
	sp.End()
	if errors.Is(err, errCompacted) || errors.Is(err, errDiverged) {
		wipe := errors.Is(err, errDiverged)
		r.logf("replica: %v; re-bootstrapping from primary snapshot (wipe=%v)", err, wipe)
		r.rebootstraps.Add(1)
		rctx, sp := obs.StartSpan(ctx, "rebootstrap")
		rerr := r.rebootstrap(rctx, wipe)
		sp.End()
		if rerr != nil {
			return fmt.Errorf("re-bootstrap: %w", rerr)
		}
		return nil // reconnect immediately at the new position
	}
	return err
}
