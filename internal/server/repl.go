package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/store"
	"funcdb/internal/wire"
)

// Replication endpoints. A primary daemon sets Config.Repl to its
// durability store; replicas bootstrap from GET /v1/repl/snapshot and
// then tail GET /v1/repl/wal?from=<pos>. Both endpoints are mounted
// outside the timeout middleware: a WAL stream is deliberately
// long-lived, and a snapshot can be large.

// handleReadyz reports readiness. Liveness stays on /healthz (always 200
// once the process serves HTTP); readiness is 503 until the node can
// answer queries at quality — on a replica, until it has bootstrapped and
// its lag is under the configured bound.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	if s.cfg.Ready != nil {
		if err := s.cfg.Ready(); err != nil {
			// Returning the error (instead of writing the body here) routes
			// the failure through instrument: it renders the standard
			// {"error":{...}} envelope AND counts in funcdbd_errors_total,
			// which the old inline write silently skipped.
			return api.Errorf(http.StatusServiceUnavailable, "not_ready", "%v", err)
		}
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready", "databases": s.reg.Len()})
	return nil
}

// handleReplLSN reports this node's last applied WAL position. The reshard
// flow reads it from the source group to learn the watermark its WAL tail
// must reach before the cut-over is final.
func (s *Server) handleReplLSN(w http.ResponseWriter, r *http.Request) error {
	api.WriteJSON(w, http.StatusOK, map[string]any{"lsn": s.cfg.Repl.LastLSN()})
	return nil
}

// handleReplSnapshot sends the newest durable snapshot prefixed by a
// framed manifest record: the replica learns which LSN the snapshot
// captures and how far the journal extends beyond it before the first
// snapshot byte arrives. A primary that has journaled mutations but never
// snapshotted takes one on demand; a completely empty primary sends a
// manifest with zero bytes and the replica starts from an empty catalog.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) error {
	st := s.cfg.Repl
	lsn, path, ok := st.NewestSnapshot()
	if !ok && st.LastLSN() > 0 {
		if err := st.Snapshot(); err != nil {
			return fmt.Errorf("snapshot for bootstrap: %w", err)
		}
		lsn, path, ok = st.NewestSnapshot()
	}
	var raw []byte
	if ok {
		var err error
		raw, err = os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, _, err := store.InspectSnapshot(raw); err != nil {
			return fmt.Errorf("snapshot %s failed verification: %w", path, err)
		}
	}
	last := st.LastLSN()
	if last < lsn {
		last = lsn
	}
	m := wire.Manifest{SnapshotLSN: lsn, LastLSN: last, SnapshotBytes: uint64(len(raw))}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if err := wire.WriteRecord(w, wire.EncodeManifest(m)); err != nil {
		return nil // client went away mid-send
	}
	_, _ = w.Write(raw)
	return nil
}

// handleReplWAL streams journaled mutations from a record position as
// framed wire records, long-polling at the tail. While the stream is
// caught up it emits a heartbeat frame every ReplHeartbeat, so the
// replica can maintain its lag gauges (and detect a dead primary by
// silence). A position older than the oldest record on disk is answered
// with 410 and the machine code "compacted" — the replica must
// re-bootstrap from a snapshot.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) error {
	st := s.cfg.Repl
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from == 0 {
		return errf(http.StatusBadRequest, "from must be a positive record position")
	}
	cur, err := st.ReadFrom(from)
	if errors.Is(err, store.ErrCompacted) {
		return api.Errorf(http.StatusGone, "compacted", "%v", err)
	}
	if err != nil {
		return err
	}
	defer cur.Close()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	ctx := r.Context()
	for {
		rctx, cancel := context.WithTimeout(ctx, s.cfg.ReplHeartbeat)
		rec, err := cur.Next(rctx)
		cancel()
		frame := wire.Frame{PrimaryLast: st.LastLSN(), TSMillis: uint64(time.Now().UnixMilli())}
		switch {
		case err == nil:
			frame.Kind = wire.FrameMutation
			frame.Record = rec.Payload
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			frame.Kind = wire.FrameHeartbeat
		default:
			// Client disconnect, server shutdown, or the log compacted
			// past an idle cursor. The status is already written; just end
			// the stream and let the replica reconnect.
			return nil
		}
		if err := wire.WriteRecord(w, wire.EncodeFrame(frame)); err != nil {
			return nil
		}
		if fl != nil {
			fl.Flush()
		}
	}
}
