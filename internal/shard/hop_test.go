package shard

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/leakcheck"
	"funcdb/internal/obs"
	"funcdb/internal/registry"
	"funcdb/internal/server"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// TestRoutedCancelReachesShard: a client that gives up on a routed answers
// request stops the shard's evaluation too. The query enumerates the 6^12
// lists over six elements, minutes of work unbounded; within 200 ms of the
// client's cancel the shard has recorded the request as canceled, and once
// everything is closed no goroutine is left on either side.
func TestRoutedCancelReachesShard(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		reg := registry.New(core.Options{})
		if _, err := reg.PutProgram("sub", []byte(datagen.SubsetsSrc(6))); err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(64, time.Hour, 1)
		ts := httptest.NewServer(server.New(reg, server.Config{
			Recorder: rec, Timeout: time.Minute, MaxTuples: 1 << 40, Logger: quiet}).Handler())
		defer ts.Close()
		src := NewSource(&Map{Version: 1, Groups: []Group{{Name: "g", Primary: ts.URL}}})
		defer src.Close()
		rt := NewRouter(src, Options{ShardTimeout: time.Minute, TraceBuffer: -1, Logger: quiet})
		defer rt.Close()
		rts := httptest.NewServer(rt)
		defer rts.Close()

		post := func(ctx context.Context, path, body string) (int, error) {
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, rts.URL+path, strings.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return 0, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return resp.StatusCode, nil
		}
		// Compile outside the canceled request.
		if code, err := post(context.Background(), "/v1/db/sub/ask", `{"query":"?- Member(ext(0, e0), e0)."}`); code != http.StatusOK {
			t.Fatalf("warm-up ask: %d %v", code, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := post(ctx, "/v1/db/sub/answers", `{"query":"?- Member(S, e1).","depth":12}`)
			done <- err
		}()
		time.Sleep(100 * time.Millisecond) // the shard is enumerating
		start := time.Now()
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled request returned %v", err)
		}
		for {
			var hit *obs.TraceEntry
			for _, e := range rec.List(0) {
				if e.Endpoint == "answers" {
					hit = e
				}
			}
			if hit != nil {
				if hit.Code != "canceled" {
					t.Fatalf("shard recorded the answers request as %d %q, want canceled", hit.Status, hit.Code)
				}
				t.Logf("shard recorded the cancel %v after the client's", time.Since(start))
				return
			}
			if time.Since(start) > 200*time.Millisecond {
				t.Fatal("shard still evaluating 200ms after the client canceled")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	leakcheck.Settled(t, baseline)
}

// restartableShard is an fdbd-style daemon on a fixed address over a
// registry that outlives it, so a test can stop it and start it again where
// the router expects it, catalog intact, as a durable daemon would recover.
type restartableShard struct {
	t    *testing.T
	addr string
	reg  *registry.Registry
	hs   *http.Server
	s    *server.Server
}

func (rs *restartableShard) start() {
	rs.t.Helper()
	ln, err := net.Listen("tcp", rs.addr)
	if err != nil {
		rs.t.Fatal(err)
	}
	rs.addr = ln.Addr().String()
	rs.s = server.New(rs.reg, server.Config{Logger: quiet})
	rs.hs = &http.Server{Handler: rs.s.Handler()}
	go rs.hs.Serve(ln)
}

// stop takes the daemon down the way a crash does: every connection,
// upgraded ones included, closed at once.
func (rs *restartableShard) stop() {
	rs.hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs.s.Shutdown(ctx)
}

// TestHopSurvivesShardRestart: a shard restarted on the same address is
// reachable through the router at once. The next routed read succeeds, and
// a routed write is applied at most once: either it succeeds and the
// version rises by exactly one, or the client gets a retryable 502 and
// nothing was applied. A write is never replayed.
func TestHopSurvivesShardRestart(t *testing.T) {
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("even", []byte("Even(0).\nEven(T) -> Even(T+2).\n")); err != nil {
		t.Fatal(err)
	}
	rs := &restartableShard{t: t, addr: "127.0.0.1:0", reg: reg}
	rs.start()
	t.Cleanup(rs.stop)
	src := NewSource(&Map{Version: 1, Groups: []Group{{Name: "g", Primary: "http://" + rs.addr}}})
	t.Cleanup(func() { src.Close() })
	rt := NewRouter(src, Options{ShardTimeout: 5 * time.Second, Logger: quiet})
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)

	do := func(method, path, body string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(method, rts.URL+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, raw
	}
	version := func() int {
		t.Helper()
		resp, raw := do(http.MethodGet, "/v1/db/even", "")
		var info struct {
			Version int `json:"version"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &info) != nil {
			t.Fatalf("info: %d %s", resp.StatusCode, raw)
		}
		return info.Version
	}
	ask := func(when string) {
		t.Helper()
		resp, raw := do(http.MethodPost, "/v1/db/even/ask", `{"query":"?- Even(4)."}`)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"answer":true`) {
			t.Fatalf("ask %s: %d %s", when, resp.StatusCode, raw)
		}
	}

	ask("before the restart")
	rs.stop()
	rs.start()
	ask("after the restart")

	for i := 0; i < 2; i++ {
		before := version()
		rs.stop()
		rs.start()
		resp, raw := do(http.MethodPost, "/v1/db/even/facts", `{"facts":"Even(101)."}`)
		after := version()
		switch resp.StatusCode {
		case http.StatusOK:
			if after != before+1 {
				t.Fatalf("write applied: version %d -> %d, want exactly one step", before, after)
			}
		case http.StatusBadGateway:
			if resp.Header.Get("Retry-After") == "" || after != before {
				t.Fatalf("refused write: Retry-After %q, version %d -> %d", resp.Header.Get("Retry-After"), before, after)
			}
		default:
			t.Fatalf("write after a restart: %d %s", resp.StatusCode, raw)
		}
	}
}
