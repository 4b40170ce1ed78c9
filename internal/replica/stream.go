package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/wire"
)

// Sentinel outcomes of one stream episode that change the retry policy.
var (
	// errCompacted: the primary answered 410 — it no longer holds our
	// next record. Recover by re-bootstrapping from its newest snapshot.
	errCompacted = errors.New("replica: primary compacted past our position")
	// errDiverged: the primary's newest LSN is below what we have
	// applied, so our journal describes a history the primary does not
	// have (it was restored or wiped). Recover by wiping and
	// re-bootstrapping.
	errDiverged = errors.New("replica: local position ahead of primary")
)

// stream tails the primary's WAL from just past our applied position,
// journaling and applying each mutation frame. It returns when the
// connection breaks, the watchdog fires, ctx is canceled, or a sentinel
// condition (compaction, divergence) demands a re-bootstrap.
func (r *Replica) stream(ctx context.Context) error {
	from := r.applied.Load() + 1
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The episode's trace ID rides along (Stream injects it), so a WAL
	// request that fails on the primary is recorded there under the same ID
	// as this episode.
	resp, err := r.opts.HTTP.Stream(sctx, api.Request{Method: http.MethodGet,
		URL: r.opts.Primary + "/v1/repl/wal?from=" + strconv.FormatUint(from, 10)})
	var refused *api.Error
	switch {
	case errors.As(err, &refused) && refused.Status == http.StatusGone:
		return errCompacted
	case err != nil:
		return fmt.Errorf("wal request: %s", api.Detail(err))
	}
	defer resp.Body.Close()
	r.connected.Store(true)
	defer r.connected.Store(false)

	// A healthy primary sends at least heartbeats; total silence means the
	// connection is dead in a way TCP has not noticed. Cancel the request
	// so the blocked read returns and the session retries.
	watchdog := time.AfterFunc(r.opts.StallTimeout, cancel)
	defer watchdog.Stop()

	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		rec, err := wire.ReadRecord(br)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("stream read: %w", err)
		}
		watchdog.Reset(r.opts.StallTimeout)
		f, err := wire.DecodeFrame(rec)
		if err != nil {
			return err
		}
		r.primaryLast.Store(f.PrimaryLast)
		if now := time.Now().UnixMilli(); f.TSMillis > 0 && now > int64(f.TSMillis) {
			r.lagMillis.Store(now - int64(f.TSMillis))
		} else {
			r.lagMillis.Store(0)
		}
		switch f.Kind {
		case wire.FrameHeartbeat:
			if f.PrimaryLast < r.applied.Load() {
				return fmt.Errorf("%w: primary at lsn %d, applied %d", errDiverged, f.PrimaryLast, r.applied.Load())
			}
		case wire.FrameMutation:
			if err := r.apply(f.Record); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown frame kind %d", f.Kind)
		}
	}
}

// apply journals one streamed record and applies it to the catalog —
// journal first, exactly like a primary's write-ahead order, so a crash
// between the two replays the record on restart. Apply failures are
// logged and skipped, matching local recovery's policy: one bad mutation
// must not wedge replication.
func (r *Replica) apply(recPayload []byte) error {
	lsn, m, err := wire.DecodeMutation(recPayload)
	if err != nil {
		return err
	}
	applied := r.applied.Load()
	if lsn <= applied {
		return nil // duplicate after a reconnect race; already durable
	}
	if lsn != applied+1 {
		return fmt.Errorf("gap in stream: got lsn %d, want %d", lsn, applied+1)
	}
	if err := r.st.AppendReplicated(lsn, m); err != nil {
		return err
	}
	r.journalLSN.Store(lsn)
	if err := r.reg.ApplyAt(m); err != nil {
		r.applyErrors.Add(1)
		r.logf("replica: apply of %s %q (lsn %d) failed: %v", m.Op, m.Name, lsn, err)
	}
	r.applied.Store(lsn)
	r.sinceSnap++
	if every := r.opts.Store.SnapshotEvery; every > 0 && r.sinceSnap >= every {
		if err := r.st.Snapshot(); err != nil {
			r.logf("replica: local snapshot failed: %v", err)
		}
		r.sinceSnap = 0
	}
	return nil
}
