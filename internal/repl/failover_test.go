package repl_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/registry"
	"funcdb/internal/repl"
	"funcdb/internal/server"
)

// startNode serves a registry with the "even" program, optionally as a
// read-only replica.
func startNode(t *testing.T, readOnly bool) (*httptest.Server, *registry.Registry) {
	t.Helper()
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("even", []byte("Even(0).\nEven(T) -> Even(T+2).\n")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Config{ReadOnly: readOnly}).Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

// TestFailoverOnDeadEndpoint lists a dead endpoint first; every query
// must still succeed by failing over to the live one, and subsequent
// requests must stick to the endpoint that worked.
func TestFailoverOnDeadEndpoint(t *testing.T) {
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	live, _ := startNode(t, false)

	c := &repl.RemoteClient{Base: deadURL + "," + live.URL, DB: "even"}
	for i := 0; i < 3; i++ {
		yes, _, err := c.Ask(context.Background(), "?- Even(4).")
		if err != nil || !yes {
			t.Fatalf("ask %d = %v, %v; want true", i, yes, err)
		}
	}
}

// TestWriteFailsOverFromReplica lists a read replica first: reads may be
// served there, but a write must land on the primary without surfacing
// the replica's 403 to the caller.
func TestWriteFailsOverFromReplica(t *testing.T) {
	replica, rreg := startNode(t, true)
	primary, preg := startNode(t, false)

	c := &repl.RemoteClient{Base: replica.URL + "," + primary.URL, DB: "even"}
	if yes, _, err := c.Ask(context.Background(), "?- Even(4)."); err != nil || !yes {
		t.Fatalf("read = %v, %v; want true", yes, err)
	}
	v, err := c.AddFacts(context.Background(), "Even(3).")
	if err != nil {
		t.Fatalf("write through failover: %v", err)
	}
	if v != 2 {
		t.Fatalf("write produced version %d, want 2", v)
	}
	if e, _ := preg.Get("even"); e == nil || e.Version != 2 {
		t.Fatal("write did not land on the primary")
	}
	if e, _ := rreg.Get("even"); e == nil || e.Version != 1 {
		t.Fatal("replica was mutated by a failed-over write")
	}
}

// TestNoFailoverOnQueryError checks that a client error is returned
// as-is: it would fail identically on every endpoint.
func TestNoFailoverOnQueryError(t *testing.T) {
	a, _ := startNode(t, false)
	b, _ := startNode(t, false)
	c := &repl.RemoteClient{Base: a.URL + "," + b.URL, DB: "missing"}
	if _, _, err := c.Ask(context.Background(), "?- Even(4)."); err == nil {
		t.Fatal("ask against unknown database succeeded")
	}
}

func TestEndpointsParsing(t *testing.T) {
	c := &repl.RemoteClient{Base: " http://a:1/ , http://b:2 ,, "}
	got := c.Endpoints()
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("Endpoints() = %v", got)
	}
}

// TestShedRetriesInPlaceNotAcross: an endpoint that sheds with 429
// rate_limited must be retried in place after the Retry-After pause, not
// failed over — the second (healthy) endpoint must never see the request.
func TestShedRetriesInPlaceNotAcross(t *testing.T) {
	var mu sync.Mutex
	shedsLeft := 2
	spare := 0
	live, _ := startNode(t, false)
	shedder := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		mu.Lock()
		over := shedsLeft > 0
		if over {
			shedsLeft--
		}
		mu.Unlock()
		if over {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":{"code":"rate_limited","message":"tenant over budget"}}`))
			return
		}
		// Recovered: proxy to the real daemon.
		resp, err := http.Post(live.URL+r.URL.Path, "application/json", r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(shedder.Close)
	wrongNode := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		mu.Lock()
		spare++
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"answer":true,"version":1}`))
	}))
	t.Cleanup(wrongNode.Close)

	c := &repl.RemoteClient{Base: shedder.URL + "," + wrongNode.URL, DB: "even", APIKey: "tenant-a"}
	yes, _, err := c.Ask(context.Background(), "?- Even(4).")
	if err != nil || !yes {
		t.Fatalf("ask after sheds = %v, %v; want true", yes, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if shedsLeft != 0 {
		t.Fatalf("shedder only consumed %d sheds", 2-shedsLeft)
	}
	if spare != 0 {
		t.Fatalf("shed failed over: second endpoint saw %d requests, want 0", spare)
	}
}
