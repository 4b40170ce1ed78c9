package repl_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"funcdb/internal/repl"
	"funcdb/internal/watch"
)

// TestWatchHonorsRetryAfter: a watch refused with 429 and Retry-After: 1
// comes back after what the server asked for, clipped to BackoffMax — not
// after its own millisecond jitter. (The watch client used to build its
// RemoteError without the header, so it never waited.)
func TestWatchHonorsRetryAfter(t *testing.T) {
	var mu sync.Mutex
	var arrivals []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		first := len(arrivals) == 1
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":{"code":"too_many_streams","message":"stream cap reached"}}`+"\n")
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"type":"init","db":"even","version":1,"lsn":1}`+"\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c := &repl.RemoteClient{Base: ts.URL, DB: "even"}
	err := c.Watch(ctx, "?- Even(T).", repl.WatchOptions{BackoffMin: time.Millisecond, BackoffMax: 300 * time.Millisecond},
		func(watch.Frame) { cancel() }) // the init frame of the second attempt ends the test
	if err != context.Canceled {
		t.Fatalf("Watch: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 2 {
		t.Fatalf("%d attempts, want 2", len(arrivals))
	}
	if gap := arrivals[1].Sub(arrivals[0]); gap < 280*time.Millisecond || gap > time.Second {
		t.Fatalf("second attempt came %v after the 429; want the Retry-After clipped to BackoffMax (300ms)", gap)
	}
}
