package server

import (
	"errors"
	"net/http"
	"strings"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/watch"
)

// watchRequest subscribes a live query. Depth and limit bound every
// frame's enumeration exactly like /answers; from_lsn lets a reconnecting
// client refuse a node that has not yet caught up to where it left off.
type watchRequest struct {
	Query   string `json:"query"`
	Depth   int    `json:"depth,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	FromLSN uint64 `json:"from_lsn,omitempty"`
}

func (req *watchRequest) fields() []field {
	return []field{{"query", &req.Query}, {"depth", &req.Depth}, {"limit", &req.Limit}, {"from_lsn", &req.FromLSN}}
}

// handleWatch streams NDJSON answer-delta frames. Like every stream it runs
// with no request deadline, and it is served even on read-only replicas — a
// watch is a read, and replicas push deltas as their tailed WAL applies.
// Once the init frame is on the wire every exit returns nil: the status is
// committed and errors can only end the stream.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	var req watchRequest
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
	hub := s.cfg.Watch
	if req.FromLSN > 0 && hub.LSN() < req.FromLSN {
		return api.Errorf(http.StatusConflict, "watch_behind",
			"this node has applied lsn %d, behind requested %d; retry or use another endpoint",
			hub.LSN(), req.FromLSN).WithRetryAfter(1)
	}
	sub, err := hub.Subscribe(r.Context(), name, req.Query, req.Depth, limit, api.Tenant(r))
	if err != nil {
		if errors.Is(err, watch.ErrTenantStreams) {
			// The tenant's own cap, not node capacity: render it like any
			// other rate-limiting shed so clients back off, not fail over.
			s.cfg.Admission.RecordWatchShed()
			return api.Errorf(http.StatusTooManyRequests, "rate_limited", "%v", err).WithRetryAfter(2)
		}
		if errors.Is(err, watch.ErrTooManyStreams) {
			return api.Errorf(http.StatusTooManyRequests, "too_many_streams", "%v", err).WithRetryAfter(2)
		}
		if errors.Is(err, watch.ErrClosed) {
			return api.Errorf(http.StatusServiceUnavailable, "shutting_down", "%v", err)
		}
		return queryError(err)
	}
	defer hub.Unsubscribe(sub)

	// Hold the status until the worker produced the init frame: an
	// evaluation error (unsafe query, spec entry, vanished database) must
	// render as a proper JSON error, not a broken 200 stream.
	ctx := r.Context()
	var first watch.Frame
	select {
	case first = <-sub.Frames():
	case <-sub.Closed():
		if err := sub.Err(); err != nil {
			return queryError(err)
		}
		return api.Errorf(http.StatusServiceUnavailable, "stream_closed", "watch stream closed: %s", sub.Reason())
	case <-ctx.Done():
		return api.Errorf(api.StatusClientClosedRequest, "canceled", "client closed request")
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	writeFrame := func(f watch.Frame) bool {
		raw, err := watch.EncodeFrame(f)
		if err != nil {
			return false
		}
		if _, err := w.Write(raw); err != nil {
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}
	if !writeFrame(first) {
		return nil
	}
	hb := time.NewTicker(s.cfg.WatchHeartbeat)
	defer hb.Stop()
	for {
		select {
		case f := <-sub.Frames():
			if !writeFrame(f) {
				return nil
			}
		case <-sub.Closed():
			// Flush whatever the worker queued before it closed us, then
			// say goodbye: the reason tells the client whether to
			// reconnect (slow_consumer) or give up (database_deleted).
		drain:
			for {
				select {
				case f := <-sub.Frames():
					if !writeFrame(f) {
						return nil
					}
				default:
					break drain
				}
			}
			writeFrame(watch.Frame{Type: watch.FrameEnd, DB: sub.DB, LSN: hub.LSN(), Reason: sub.Reason()})
			return nil
		case <-hb.C:
			if !writeFrame(watch.Frame{Type: watch.FrameHeartbeat, LSN: hub.LSN()}) {
				return nil
			}
		case <-ctx.Done():
			return nil
		}
	}
}
