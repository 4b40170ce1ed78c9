// Package watch is the live-query subsystem: it turns the registry's
// version bumps (one per WAL record) into streams of answer deltas.
//
// The paper's Theorem 5.1 makes this more than convenience: for uniform
// queries the answer set after an extension is computable incrementally
// from the new snapshot alone, so a subscriber can be told exactly which
// tuples appeared (+answer) or disappeared (-answer) without anyone
// re-running the full query per subscriber per tick. Non-uniform queries
// have no such incremental specification; their subscribers get the
// recomputed set as a resync frame instead of possibly-wrong deltas.
//
// A Hub owns one worker goroutine per watched database. The registry
// notifier (commit order, post-visibility) marks the database dirty; the
// worker pins one immutable core.Snapshot, evaluates every subscribed
// query once against it, diffs against each stream's previous answer set
// and fans the frames out through bounded queues. A consumer that cannot
// keep up is disconnected (slow_consumer) rather than buffered without
// bound — it reconnects and resyncs.
package watch

import (
	"encoding/json"
	"fmt"
	"sort"

	"funcdb/internal/query"
)

// Frame types, in the order a stream produces them: one init, then any
// mix of delta/resync/heartbeat, then exactly one end.
const (
	// FrameInit is the first frame on a stream: Add holds the full
	// current answer set (bounded by the subscription's depth/limit).
	FrameInit = "init"
	// FrameDelta reports an incremental change: Add holds tuples that
	// appeared, Del tuples that disappeared, relative to the previous
	// frame's state.
	FrameDelta = "delta"
	// FrameResync replaces the subscriber's state wholesale: Add holds
	// the full recomputed set. Emitted for non-uniform queries on every
	// bump, and whenever the delta path could not produce a trustworthy
	// diff (truncated enumeration, evaluation error, budget exceeded).
	FrameResync = "resync"
	// FrameHeartbeat carries only the current LSN; it keeps idle
	// connections alive and lets reconnecting clients advance from_lsn.
	FrameHeartbeat = "heartbeat"
	// FrameEnd is the last frame: Reason says why the stream closed.
	FrameEnd = "end"
)

// End-of-stream and resync reasons.
const (
	// ReasonNonUniform marks a resync caused by the query having no
	// incremental specification (Theorem 5.1 does not apply).
	ReasonNonUniform = "non_uniform_query"
	// ReasonTruncated marks a resync whose Add set was cut short by the
	// subscription's depth/limit bounds; the next bump resyncs again.
	ReasonTruncated = "enumeration_truncated"
	// ReasonBudget marks a resync caused by delta evaluation exceeding
	// its per-tick time budget.
	ReasonBudget = "delta_budget_exceeded"
	// ReasonSlowConsumer ends a stream whose frame queue overflowed.
	ReasonSlowConsumer = "slow_consumer"
	// ReasonDeleted ends a stream whose database left the catalog.
	ReasonDeleted = "database_deleted"
	// ReasonClosed ends every stream when the hub shuts down.
	ReasonClosed = "hub_closed"
)

// Diff returns the tuples of cur missing from old and those of old missing
// from cur, each sorted by key: the delta between two rendered answer sets
// keyed by query.Tuple.Key. The hub sends it; a watch client recomputes it against
// its own state when a resumed stream opens with a full set.
func Diff(old, cur map[string]query.Tuple) (add, del []query.Tuple) {
	return sorted(cur, old), sorted(old, cur)
}

// sorted returns the tuples of set whose keys except lacks, sorted by key.
func sorted(set, except map[string]query.Tuple) []query.Tuple {
	var keys []string
	for k := range set {
		if _, ok := except[k]; !ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Strings(keys)
	out := make([]query.Tuple, len(keys))
	for i, k := range keys {
		out[i] = set[k]
	}
	return out
}

// Frame is one NDJSON line on a watch stream. Every data-bearing frame is
// tagged with the database version and journal LSN that produced it, so a
// client can resume at exactly its last applied position.
type Frame struct {
	// Type is one of the Frame* constants.
	Type string `json:"type"`
	// DB names the watched database (init/delta/resync/end).
	DB string `json:"db,omitempty"`
	// Version is the catalog version the frame reflects.
	Version uint64 `json:"version,omitempty"`
	// LSN is the journal position the frame reflects (0 when the serving
	// node has no journal, e.g. an ephemeral in-memory daemon).
	LSN uint64 `json:"lsn,omitempty"`
	// Add holds appearing tuples (delta) or the full set (init/resync).
	Add []query.Tuple `json:"add,omitempty"`
	// Del holds disappearing tuples (delta only).
	Del []query.Tuple `json:"del,omitempty"`
	// Truncated marks an init/resync whose Add set hit the
	// subscription's enumeration bounds.
	Truncated bool `json:"truncated,omitempty"`
	// Reason explains a resync or end frame.
	Reason string `json:"reason,omitempty"`
}

func validType(t string) bool {
	switch t {
	case FrameInit, FrameDelta, FrameResync, FrameHeartbeat, FrameEnd:
		return true
	}
	return false
}

// EncodeFrame renders one newline-terminated NDJSON line.
func EncodeFrame(f Frame) ([]byte, error) {
	if !validType(f.Type) {
		return nil, fmt.Errorf("watch: invalid frame type %q", f.Type)
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// DecodeFrame parses one NDJSON line (trailing newline optional) into a
// Frame, rejecting unknown frame types so protocol drift fails loudly.
func DecodeFrame(line []byte) (Frame, error) {
	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		return Frame{}, fmt.Errorf("watch: bad frame: %w", err)
	}
	if !validType(f.Type) {
		return Frame{}, fmt.Errorf("watch: unknown frame type %q", f.Type)
	}
	return f, nil
}
