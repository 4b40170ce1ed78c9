package api

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"funcdb/internal/obs"
)

const (
	// DefaultTimeout bounds a Do whose context carries no deadline. Streams
	// are bounded only by their context.
	DefaultTimeout = 30 * time.Second
	// MaxBody is the largest body either side buffers: a response in Do, a
	// request the router holds for replay.
	MaxBody = 16 << 20

	healthTTL    = 2 * time.Second
	probeTimeout = 750 * time.Millisecond
)

// Client is the one way this module talks to a funcdb daemon. It holds the
// module's only *http.Client — the seam where tests substitute a transport —
// and the /readyz verdicts its failover order is built from. A nil *Client
// is the process-wide default over http.DefaultTransport.
type Client struct {
	hc *http.Client

	mu     sync.Mutex
	health map[string]verdict
}

type verdict struct {
	ok    bool
	until time.Time
}

var defaultClient = NewClient(nil)

// NewClient returns a client that sends through hc. Deadlines come from
// contexts (see Do), so hc should carry no Timeout of its own: it would cut
// streams short. Nil means a client over http.DefaultTransport.
func NewClient(hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{hc: hc, health: make(map[string]verdict)}
}

func (c *Client) orDefault() *Client {
	if c == nil {
		return defaultClient
	}
	return c
}

// Request is one call to a daemon.
type Request struct {
	Method, URL string
	Body        []byte
	ContentType string // sent when not empty
	// APIKey is the tenant the call is made for (X-Api-Key); a router
	// passes its caller's so the shard charges the right bucket.
	APIKey string
	// Via marks the call as forwarded by a router (X-Funcdb-Router).
	Via string
	// Traceparent is sent as given; when empty, the trace ctx carries (if
	// any) is propagated with the current span as the remote parent.
	Traceparent string
}

// Send performs rq and returns the response whatever its status; the caller
// closes the body. It is the primitive under Stream and Do, and what a proxy
// uses to relay a response as it came.
func (c *Client) Send(ctx context.Context, rq Request) (*http.Response, error) {
	var body io.Reader
	if len(rq.Body) > 0 {
		body = bytes.NewReader(rq.Body)
	}
	req, err := http.NewRequestWithContext(ctx, rq.Method, rq.URL, body)
	if err != nil {
		return nil, err
	}
	if rq.ContentType != "" {
		req.Header.Set("Content-Type", rq.ContentType)
	}
	if rq.APIKey != "" {
		req.Header.Set(HeaderAPIKey, rq.APIKey)
	}
	if rq.Via != "" {
		req.Header.Set(HeaderRouter, rq.Via)
	}
	if rq.Traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, rq.Traceparent)
	} else {
		obs.InjectTraceparent(ctx, req.Header)
	}
	return c.orDefault().hc.Do(req)
}

// Stream performs rq and checks the status: a 2xx response comes back with
// its body open, anything else as an *Error with the body consumed.
func (c *Client) Stream(ctx context.Context, rq Request) (*http.Response, error) {
	resp, err := c.Send(ctx, rq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, ReadError(resp)
	}
	return resp, nil
}

// Do performs rq and returns the body of a 2xx response, at most MaxBody of
// it. A context without a deadline gets DefaultTimeout.
func (c *Client) Do(ctx context.Context, rq Request) ([]byte, error) {
	if _, bounded := ctx.Deadline(); !bounded {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, DefaultTimeout)
		defer cancel()
	}
	resp, err := c.Stream(ctx, rq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxBody+1))
	if err != nil {
		return nil, err
	}
	if len(body) > MaxBody {
		return nil, fmt.Errorf("%s %s: response exceeds %d bytes", rq.Method, rq.URL, MaxBody)
	}
	return body, nil
}

// ---- the failover policy ----
//
// Every failure of a call is one of three things. A node failure (Failover)
// moves the call to the next endpoint of the replica set. A transient
// refusal (RetryDelay) would be refused by every endpoint alike, so the
// caller waits and asks again. Anything else is final.

// Failover reports whether err is a reason to try the next endpoint: the
// node did not answer (any error that is not a daemon's refusal), it answered
// 5xx, or it is a healthy read replica refusing a write that belongs on the
// primary (403 read_only_replica). Admission sheds are not node failures —
// the tenant's budget or the cluster's capacity is spent everywhere at once,
// and replaying the call on a replica would only spread the overload.
func Failover(err error) bool {
	var e *Error
	if !errors.As(err, &e) {
		return true
	}
	if Shed(err) {
		return false
	}
	return e.Status >= 500 || (e.Status == http.StatusForbidden && e.Code == "read_only_replica")
}

// Shed reports whether err is an admission-control shed: a refusal that asks
// the client to slow down, not to go elsewhere.
func Shed(err error) bool {
	var e *Error
	if !errors.As(err, &e) {
		return false
	}
	return e.Status == http.StatusTooManyRequests ||
		(e.Status == http.StatusServiceUnavailable && (e.Code == "overloaded" || e.Code == "rate_limited"))
}

// RetryDelay reports whether err is a transient refusal worth repeating after
// a pause, and how long to pause: the server's Retry-After when it is longer
// than the caller's own backoff. Transient are sheds, a database frozen
// mid-reshard (409 resharding), a node behind a watch's resume point (409
// watch_behind), and a 502 or 503 that came with Retry-After — a router that
// lost its shard group.
func RetryDelay(err error, backoff time.Duration) (time.Duration, bool) {
	var e *Error
	if !errors.As(err, &e) {
		return 0, false
	}
	transient := Shed(err) ||
		(e.Status == http.StatusConflict && (e.Code == "resharding" || e.Code == "watch_behind")) ||
		((e.Status == http.StatusBadGateway || e.Status == http.StatusServiceUnavailable) && e.RetryAfter > 0)
	if !transient {
		return 0, false
	}
	if d := time.Duration(e.RetryAfter) * time.Second; d > backoff {
		return d, true
	}
	return backoff, true
}

// Ready reports whether base answered its last /readyz probe with 200,
// probing when the cached verdict is older than healthTTL, so a dead node
// costs one probe per TTL and not one timeout per request.
//
// Only 200 counts. Every daemon of this module serves /readyz, so an
// endpoint that answers 404 is not one of them; and a verdict only orders
// the endpoints — Sweep still tries the unready ones last — so being strict
// cannot make a reachable node unreachable.
func (c *Client) Ready(base string) bool {
	c = c.orDefault()
	c.mu.Lock()
	v, ok := c.health[base]
	c.mu.Unlock()
	if ok && time.Now().Before(v.until) {
		return v.ok
	}
	// Not the caller's context: a caller that gave up must not leave a
	// healthy node marked bad.
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	resp, err := c.Send(ctx, Request{Method: http.MethodGet, URL: base + "/readyz"})
	good := false
	if err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBody))
		resp.Body.Close()
		good = resp.StatusCode == http.StatusOK
	}
	c.setVerdict(base, good)
	return good
}

// MarkBad records that a call to base just failed, without probing.
func (c *Client) MarkBad(base string) { c.orDefault().setVerdict(base, false) }

func (c *Client) setVerdict(base string, ok bool) {
	c.mu.Lock()
	c.health[base] = verdict{ok: ok, until: time.Now().Add(healthTTL)}
	c.mu.Unlock()
}

// Sweep runs try against the endpoints of one replica set until one answers:
// ready endpoints first, in rotation from bases[start], then — a verdict is a
// hint, not a ban — the unready ones. try receives the attempt number and the
// endpoint's index. Sweep moves on only when Failover says the error is the
// node's, marking that node bad; any other error, and a canceled ctx, end it.
// It returns the index that answered (or failed last). A set of one endpoint
// has one order, so nothing is probed or allocated for it.
func (c *Client) Sweep(ctx context.Context, bases []string, start int, try func(attempt, i int) error) (int, error) {
	n := len(bases)
	switch n {
	case 0:
		return 0, errors.New("no daemon endpoints configured")
	case 1:
		return 0, try(0, 0)
	}
	order := make([]int, 0, n)
	var unready []int
	for k := 0; k < n; k++ {
		if i := (start%n + k) % n; c.Ready(bases[i]) {
			order = append(order, i)
		} else {
			unready = append(unready, i)
		}
	}
	var i int
	var err error
	for attempt, next := range append(order, unready...) {
		i, err = next, try(attempt, next)
		if err == nil || ctx.Err() != nil || !Failover(err) {
			break
		}
		c.MarkBad(bases[i])
	}
	return i, err
}
