package api

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"funcdb/internal/obs"
)

// node is a fake daemon: /readyz per its flag, everything else per handler.
func node(t *testing.T, ready bool, h http.HandlerFunc) (*httptest.Server, *int) {
	t.Helper()
	var mu sync.Mutex
	hits := new(int)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if !ready {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			return
		}
		mu.Lock()
		*hits++
		mu.Unlock()
		h(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, hits
}

func answer(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, body) }
}

func refuse(e *Error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { WriteError(w, e) }
}

// TestSendInjects: what the client adds to a request — tenant key, router
// mark, content type, and the trace: the one given, else the context's.
func TestSendInjects(t *testing.T) {
	var got http.Header
	ts, _ := node(t, true, func(w http.ResponseWriter, r *http.Request) { got = r.Header.Clone() })
	c := NewClient(nil)

	tr := obs.NewTrace()
	ctx, sp := obs.StartSpan(obs.WithTrace(context.Background(), tr), "call")
	defer sp.End()
	if _, err := c.Do(ctx, Request{Method: "POST", URL: ts.URL + "/x", Body: []byte("{}"),
		ContentType: ContentJSON, APIKey: "tenant-a", Via: "v7"}); err != nil {
		t.Fatal(err)
	}
	tid, parent, ok := obs.ParseTraceparent(got.Get("Traceparent"))
	if got.Get("X-Api-Key") != "tenant-a" || got.Get("X-Funcdb-Router") != "v7" ||
		got.Get("Content-Type") != "application/json" || !ok || tid != tr.ID() || parent == "" {
		t.Fatalf("headers %v (trace %s)", got, tr.ID())
	}

	explicit := obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID())
	if _, err := c.Do(ctx, Request{Method: "GET", URL: ts.URL + "/x", Traceparent: explicit}); err != nil {
		t.Fatal(err)
	}
	if got.Get("Traceparent") != explicit || got.Get("X-Api-Key") != "" || got.Get("X-Funcdb-Router") != "" || got.Get("Content-Type") != "" {
		t.Fatalf("explicit traceparent, nothing else: %v", got)
	}
}

// TestDoAndStream: 2xx bodies come back, anything else is the *Error the
// daemon sent (Retry-After included), and Stream leaves a good body open.
func TestDoAndStream(t *testing.T) {
	ok, _ := node(t, true, answer(`{"answer":true}`))
	shed, _ := node(t, true, refuse(Errorf(429, "rate_limited", "slow down").WithRetryAfter(4)))
	created, _ := node(t, true, func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(201); io.WriteString(w, "made") })
	var c *Client // the nil client is the default one

	if raw, err := c.Do(context.Background(), Request{Method: "GET", URL: ok.URL + "/q"}); err != nil || string(raw) != `{"answer":true}` {
		t.Fatalf("Do: %q, %v", raw, err)
	}
	if raw, err := c.Do(context.Background(), Request{Method: "PUT", URL: created.URL + "/q"}); err != nil || string(raw) != "made" {
		t.Fatalf("Do on 201: %q, %v", raw, err)
	}
	_, err := c.Do(context.Background(), Request{Method: "GET", URL: shed.URL + "/q"})
	var e *Error
	if !errors.As(err, &e) || *e != (Error{429, "rate_limited", "slow down", 4}) {
		t.Fatalf("Do on a shed: %v", err)
	}
	if _, err := c.Stream(context.Background(), Request{Method: "GET", URL: shed.URL + "/q"}); !errors.As(err, &e) || e.RetryAfter != 4 {
		t.Fatalf("Stream on a shed: %v", err)
	}
	resp, err := c.Stream(context.Background(), Request{Method: "GET", URL: ok.URL + "/q"})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(raw) != `{"answer":true}` {
		t.Fatalf("Stream body %q", raw)
	}
}

// TestDoDeadline: Do bounds a call whose context has no deadline; the seam
// for that is the one *http.Client, here with a transport that never answers.
func TestDoDeadline(t *testing.T) {
	hang := roundTripper(func(r *http.Request) (*http.Response, error) {
		<-r.Context().Done()
		return nil, r.Context().Err()
	})
	c := NewClient(&http.Client{Transport: hang})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Do(ctx, Request{Method: "GET", URL: "http://nowhere.invalid/"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller's deadline: %v", err)
	}
	var saw time.Duration
	probe := roundTripper(func(r *http.Request) (*http.Response, error) {
		dl, _ := r.Context().Deadline()
		saw = time.Until(dl)
		return nil, errors.New("refused")
	})
	NewClient(&http.Client{Transport: probe}).Do(context.Background(), Request{Method: "GET", URL: "http://nowhere.invalid/"})
	if saw <= DefaultTimeout-time.Second || saw > DefaultTimeout {
		t.Fatalf("a deadline-free Do ran under %v, want DefaultTimeout", saw)
	}
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestSweep: ready endpoints first in rotation from start, unready ones
// last; only a node's failure moves the call on and marks the node bad; a
// refusal that is the request's own fault, or a shed, ends the sweep where
// it is and is held against nobody.
func TestSweep(t *testing.T) {
	good := answer("ok")
	a, aHits := node(t, true, good)
	b, bHits := node(t, false, good) // serves, but says it is not ready
	cNode, cHits := node(t, true, good)
	dead := httptest.NewServer(nil)
	dead.Close()
	c := NewClient(nil)
	do := func(bases []string, start int) (served int, err error) {
		return c.Sweep(context.Background(), bases, start, func(_, i int) error {
			_, err := c.Do(context.Background(), Request{Method: "GET", URL: bases[i] + "/q"})
			return err
		})
	}

	// Rotation from start, unready last.
	bases := []string{a.URL, b.URL, cNode.URL}
	for start, want := range []int{0, 2, 2} {
		if got, err := do(bases, start); err != nil || got != want {
			t.Errorf("start %d: served by %d (%v), want %d", start, got, err, want)
		}
	}
	if *aHits != 1 || *bHits != 0 || *cHits != 2 {
		t.Errorf("hits a=%d b=%d c=%d, want 1 0 2", *aHits, *bHits, *cHits)
	}
	// A verdict is a hint, not a ban: with everything else dead, the unready
	// node is still asked.
	if got, err := do([]string{dead.URL, b.URL}, 0); err != nil || got != 1 {
		t.Errorf("dead + unready: served by %d (%v), want 1", got, err)
	}
	// One endpoint: no probe, no verdict consulted.
	if got, err := do([]string{b.URL}, 5); err != nil || got != 0 {
		t.Errorf("single unready endpoint: %d, %v", got, err)
	}
	if _, err := do(nil, 0); err == nil {
		t.Error("no endpoints: no error")
	}

	for _, tc := range []struct {
		name      string
		first     http.HandlerFunc
		wantSpare int  // requests the second endpoint sees
		wantBad   bool // first endpoint marked bad afterwards
	}{
		{"500", refuse(Errorf(500, "internal", "boom")), 1, true},
		{"403 read_only_replica", refuse(Errorf(403, "read_only_replica", "replica")), 1, true},
		{"404 not_found", refuse(Errorf(404, "not_found", "no such db")), 0, false},
		{"429 shed", refuse(Errorf(429, "rate_limited", "slow down").WithRetryAfter(1)), 0, false},
		{"503 overloaded", refuse(Errorf(503, "overloaded", "full")), 0, false},
	} {
		first, _ := node(t, true, tc.first)
		spare, spareHits := node(t, true, good)
		c := NewClient(nil)
		bases := []string{first.URL, spare.URL}
		_, err := c.Sweep(context.Background(), bases, 0, func(_, i int) error {
			_, err := c.Do(context.Background(), Request{Method: "GET", URL: bases[i] + "/q"})
			return err
		})
		if (err == nil) != (tc.wantSpare == 1) || *spareHits != tc.wantSpare {
			t.Errorf("%s: err %v, spare saw %d requests, want %d", tc.name, err, *spareHits, tc.wantSpare)
		}
		if bad := !c.Ready(first.URL); bad != tc.wantBad {
			t.Errorf("%s: first endpoint bad=%v, want %v", tc.name, bad, tc.wantBad)
		}
	}

	// A caller that gave up ends the sweep without blaming the node.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c2 := NewClient(nil)
	bases = []string{a.URL, cNode.URL}
	if _, err := c2.Sweep(ctx, bases, 0, func(_, i int) error {
		_, err := c2.Do(ctx, Request{Method: "GET", URL: bases[i] + "/q"})
		return err
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled sweep: %v", err)
	}
	if !c2.Ready(a.URL) || !c2.Ready(cNode.URL) {
		t.Error("a canceled caller left a healthy node marked bad")
	}
}

// TestReadyIsCached: one probe per endpoint per TTL, MarkBad without one,
// and 200 the only ready answer.
func TestReadyIsCached(t *testing.T) {
	var mu sync.Mutex
	probes, status := 0, http.StatusOK
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		probes++
		w.WriteHeader(status)
	}))
	t.Cleanup(ts.Close)
	c := NewClient(nil)
	for i := 0; i < 5; i++ {
		if !c.Ready(ts.URL) {
			t.Fatal("ready node reported unready")
		}
	}
	c.MarkBad(ts.URL)
	if c.Ready(ts.URL) {
		t.Fatal("MarkBad did not stick")
	}
	if probes != 1 {
		t.Fatalf("%d probes, want 1", probes)
	}
	status = http.StatusNotFound // not a funcdb daemon
	if other := NewClient(nil); other.Ready(ts.URL) {
		t.Fatal("404 counted as ready")
	}
}
