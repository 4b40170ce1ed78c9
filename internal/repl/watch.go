package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/query"
	"funcdb/internal/watch"
)

// WatchOptions tunes RemoteClient.Watch.
type WatchOptions struct {
	// Depth and Limit bound every frame's enumeration, like /answers.
	Depth, Limit int
	// BackoffMin/BackoffMax bound the jittered reconnect backoff; zero
	// means the defaults (100ms / 5s).
	BackoffMin, BackoffMax time.Duration
	// Logf receives reconnect notices; nil discards them.
	Logf func(format string, args ...any)
}

// Watch subscribes to the query text q on the client's database and calls on for
// every effective change, until ctx is canceled or the subscription fails
// terminally (bad query, database deleted).
//
// The client owns the exactly-once story across failures: it mirrors the
// subscriber's answer set locally, reconnects through the endpoint list
// (primary or replicas — watches are reads) asking to resume at the last
// delivered LSN, and re-derives deltas by diffing each node's init/resync
// set against its mirror. A delta already applied is suppressed, a delta a
// dying node never sent falls out of the next diff — so the callback sees
// every answer transition exactly once, in order, regardless of primary
// crashes, failovers or slow-consumer disconnects. on receives frames of
// type init (first full set), delta and resync (truncated sets only).
func (c *RemoteClient) Watch(ctx context.Context, q string, opts WatchOptions, on func(watch.Frame)) error {
	eps := c.Endpoints()
	if len(eps) == 0 {
		return errors.New("no daemon endpoints configured")
	}
	if opts.BackoffMin <= 0 {
		opts.BackoffMin = 100 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &watchSession{c: c, query: q, opts: opts, on: on,
		state: make(map[string]query.Tuple)}
	backoff := opts.BackoffMin
	idx := int(c.preferred.Load())
	behind := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progressed, err, retry := s.attempt(ctx, idx%len(eps), eps[idx%len(eps)])
		if !retry {
			return err
		}
		if progressed {
			backoff = opts.BackoffMin
		}
		// Resume-point degradation: when every endpoint keeps answering 409
		// watch_behind, the stream has most likely been re-routed to a node
		// in a different LSN space (a reshard moved the database to another
		// group). Drop the LSN gate and reconnect from scratch — the
		// answer-set mirror still suppresses already-delivered deltas, so
		// exactly-once delivery survives the reset.
		var re *RemoteError
		if errors.As(err, &re) && re.Code == "watch_behind" {
			if behind++; behind >= 2*len(eps) && s.lastLSN > 0 {
				logf("watch: every endpoint is behind lsn %d; assuming the database moved and resetting the resume point", s.lastLSN)
				s.lastLSN = 0
				behind = 0
			}
		} else {
			behind = 0
		}
		logf("watch: %v; retrying on next endpoint in ~%v", err, backoff)
		idx++
		d := time.Duration(rand.Int63n(int64(backoff)) + int64(opts.BackoffMin))
		// A server that said how long to back off overrides the jitter.
		if asked, ok := api.RetryDelay(err, 0); ok && asked > 0 {
			d = min(asked, opts.BackoffMax)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
		if backoff *= 2; backoff > opts.BackoffMax {
			backoff = opts.BackoffMax
		}
	}
}

// watchSession is one Watch call's connection-spanning state.
type watchSession struct {
	c     *RemoteClient
	query string
	opts  WatchOptions
	on    func(watch.Frame)

	state   map[string]query.Tuple // mirror of the delivered answer set
	lastLSN uint64                 // highest LSN seen; resume point
	inited  bool                   // first init already delivered
}

// attempt runs one connected episode against one endpoint. progressed
// reports whether any frame arrived (resets backoff); retry=false makes
// the error terminal for the whole Watch.
func (s *watchSession) attempt(ctx context.Context, idx int, base string) (progressed bool, err error, retry bool) {
	body, err := json.Marshal(map[string]any{
		"query":    s.query,
		"depth":    s.opts.Depth,
		"limit":    s.opts.Limit,
		"from_lsn": s.lastLSN,
	})
	if err != nil {
		return false, err, false
	}
	resp, err := s.c.HTTP.Stream(ctx, api.Request{Method: http.MethodPost,
		URL: base + "/v1/db/" + s.c.DB + "/watch", Body: body, ContentType: api.ContentJSON, APIKey: s.c.APIKey})
	if err != nil {
		// Worth another endpoint: a node that cannot be reached or answers
		// 5xx, one not caught up to our resume point (409 watch_behind), and
		// stream caps (429). A 4xx like parse_error or not_found would fail
		// identically everywhere.
		_, transient := api.RetryDelay(err, 0)
		return false, err, ctx.Err() == nil && (api.Failover(err) || transient)
	}
	defer resp.Body.Close()
	s.c.preferred.Store(int32(idx))
	dec := json.NewDecoder(resp.Body)
	for {
		var f watch.Frame
		if derr := dec.Decode(&f); derr != nil {
			if ctx.Err() != nil {
				return progressed, ctx.Err(), false
			}
			return progressed, fmt.Errorf("watch stream read: %w", derr), true
		}
		progressed = true
		reconnect, terminal := s.handle(f)
		if terminal != nil {
			return progressed, terminal, false
		}
		if reconnect {
			return progressed, fmt.Errorf("watch stream ended: %s", f.Reason), true
		}
	}
}

// handle folds one wire frame into the mirrored state, invoking the
// callback only for effective changes.
func (s *watchSession) handle(f watch.Frame) (reconnect bool, terminal error) {
	if f.LSN > s.lastLSN {
		s.lastLSN = f.LSN
	}
	switch f.Type {
	case watch.FrameHeartbeat:
		return false, nil
	case watch.FrameInit, watch.FrameResync:
		set := make(map[string]query.Tuple, len(f.Add))
		for _, t := range f.Add {
			set[t.Key()] = t
		}
		switch {
		case !s.inited:
			s.inited = true
			s.state = set
			f.Type = watch.FrameInit
			s.on(f)
		case f.Truncated:
			// The set is incomplete; diffing would fabricate deletions.
			// Hand the resync through and let the consumer replace state.
			s.state = set
			f.Type = watch.FrameResync
			s.on(f)
		default:
			add, del := watch.Diff(s.state, set)
			s.state = set
			if len(add)+len(del) > 0 {
				s.on(watch.Frame{Type: watch.FrameDelta, DB: f.DB,
					Version: f.Version, LSN: f.LSN, Add: add, Del: del})
			}
		}
		return false, nil
	case watch.FrameDelta:
		var add, del []query.Tuple
		for _, t := range f.Add {
			if _, ok := s.state[t.Key()]; !ok {
				s.state[t.Key()] = t
				add = append(add, t)
			}
		}
		for _, t := range f.Del {
			if _, ok := s.state[t.Key()]; ok {
				delete(s.state, t.Key())
				del = append(del, t)
			}
		}
		if len(add)+len(del) > 0 {
			s.on(watch.Frame{Type: watch.FrameDelta, DB: f.DB,
				Version: f.Version, LSN: f.LSN, Add: add, Del: del})
		}
		return false, nil
	case watch.FrameEnd:
		if f.Reason == watch.ReasonDeleted {
			return false, fmt.Errorf("watch: database %q deleted", s.c.DB)
		}
		// slow_consumer, hub_closed, shutdown: reconnect and resume.
		return true, nil
	}
	return false, nil // unknown frame type: tolerate protocol growth
}
