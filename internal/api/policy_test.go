package api

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"testing"
	"time"
)

// TestPolicy is the whole failover policy as one table: for every kind of
// failure a call to a daemon can end in — status × code × Retry-After, or no
// response at all — exactly one of three things happens. The call moves to
// the next endpoint; or it is repeated in place after a pause (the server's
// Retry-After when that is longer than the caller's backoff); or it is final.
// repl.RemoteClient, its watch loop, replica, the router and reshard all act
// on these three answers and nothing else.
func TestPolicy(t *testing.T) {
	const backoff = 200 * time.Millisecond
	type action int
	const (
		final action = iota
		nextEndpoint
		retryInPlace
	)
	refusal := func(status int, code string, retryAfter int) error {
		return &Error{Status: status, Code: code, Message: "m", RetryAfter: retryAfter}
	}
	for _, tc := range []struct {
		name string
		err  error
		want action
		wait time.Duration // for retryInPlace
		shed bool
	}{
		// No response: the node's failure, whatever the transport said.
		{name: "connection refused", err: errors.New("dial tcp 127.0.0.1:1: connect: connection refused"), want: nextEndpoint},
		{name: "url.Error", err: &url.Error{Op: "Get", URL: "http://x", Err: errors.New("EOF")}, want: nextEndpoint},
		{name: "per-call deadline", err: context.DeadlineExceeded, want: nextEndpoint},
		{name: "response over the bound", err: fmt.Errorf("GET http://x: response exceeds %d bytes", MaxBody), want: nextEndpoint},

		// The node answered 5xx: its failure, unless it is a shed.
		{name: "500 internal", err: refusal(500, "internal", 0), want: nextEndpoint},
		{name: "500 no envelope", err: refusal(500, "", 0), want: nextEndpoint},
		{name: "503 shutting_down", err: refusal(503, "shutting_down", 0), want: nextEndpoint},
		{name: "503 not_ready", err: refusal(503, "not_ready", 0), want: nextEndpoint},
		{name: "504 deadline_exceeded", err: refusal(504, "deadline_exceeded", 0), want: nextEndpoint},
		// A router that lost a shard group says when to come back; the
		// sweep moves on first (another router may still reach the group).
		{name: "502 primary_unreachable + Retry-After", err: refusal(502, "primary_unreachable", 1), want: nextEndpoint},
		{name: "503 no_healthy_endpoints + Retry-After", err: refusal(503, "no_healthy_endpoints", 1), want: nextEndpoint},
		{name: "503 no_shardmap + Retry-After", err: refusal(503, "no_shardmap", 1), want: nextEndpoint},

		// A healthy replica refusing a write: the primary is elsewhere.
		{name: "403 read_only_replica", err: refusal(403, "read_only_replica", 0), want: nextEndpoint},
		{name: "403 anything else", err: refusal(403, "forbidden", 0), want: final},

		// Sheds: the tenant's budget or the cluster's capacity is spent
		// everywhere at once. Slow down; do not go elsewhere.
		{name: "429 rate_limited + Retry-After 3", err: refusal(429, "rate_limited", 3), want: retryInPlace, wait: 3 * time.Second, shed: true},
		{name: "429 rate_limited, no hint", err: refusal(429, "rate_limited", 0), want: retryInPlace, wait: backoff, shed: true},
		{name: "429 too_many_streams", err: refusal(429, "too_many_streams", 2), want: retryInPlace, wait: 2 * time.Second, shed: true},
		{name: "503 overloaded, no hint", err: refusal(503, "overloaded", 0), want: retryInPlace, wait: backoff, shed: true},
		{name: "503 rate_limited", err: refusal(503, "rate_limited", 1), want: retryInPlace, wait: time.Second, shed: true},

		// Transient by contract.
		{name: "409 resharding", err: refusal(409, "resharding", 1), want: retryInPlace, wait: time.Second},
		{name: "409 resharding, no hint", err: refusal(409, "resharding", 0), want: retryInPlace, wait: backoff},
		{name: "409 watch_behind", err: refusal(409, "watch_behind", 1), want: retryInPlace, wait: time.Second},
		{name: "409 stale_shardmap", err: refusal(409, "stale_shardmap", 1), want: final},

		// The request's own fault: it would fail identically everywhere.
		{name: "400 bad_request", err: refusal(400, "bad_request", 0), want: final},
		{name: "400 parse_error", err: refusal(400, "parse_error", 0), want: final},
		{name: "404 not_found", err: refusal(404, "not_found", 0), want: final},
		{name: "404 no envelope", err: refusal(404, "", 0), want: final},
		{name: "410 compacted", err: refusal(410, "compacted", 0), want: final},
		{name: "413 body_too_large", err: refusal(413, "body_too_large", 0), want: final},
		{name: "422 budget_exceeded", err: refusal(422, "budget_exceeded", 0), want: final},
		{name: "499 canceled", err: refusal(499, "canceled", 0), want: final},
		{name: "wrapped refusal", err: fmt.Errorf("leg g1: %w", refusal(404, "not_found", 0)), want: final},
	} {
		got := final
		wait, retry := RetryDelay(tc.err, backoff)
		switch {
		case Failover(tc.err):
			got = nextEndpoint
		case retry:
			got = retryInPlace
		}
		if got != tc.want {
			t.Errorf("%s: action %d, want %d (Failover=%v RetryDelay=%v,%v)", tc.name, got, tc.want, Failover(tc.err), wait, retry)
		}
		if tc.want == retryInPlace && wait != tc.wait {
			t.Errorf("%s: wait %v, want %v", tc.name, wait, tc.wait)
		}
		if Shed(tc.err) != tc.shed {
			t.Errorf("%s: Shed=%v, want %v", tc.name, Shed(tc.err), tc.shed)
		}
	}
}
