package shard

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"funcdb/internal/admission"
	"funcdb/internal/core"
	"funcdb/internal/registry"
	"funcdb/internal/server"
)

// TestScatterLegsChargeTheCaller: a cross-database batch is cost class 8 on
// the shard, and it is the caller's bucket that pays — a tenant over its rate
// is shed through the router's POST /v1/batch exactly as it would be shed by
// the shard directly, and nobody else is. (The legs used to carry no
// X-Api-Key, so every tenant's cross-db batch was charged to "anonymous".)
func TestScatterLegsChargeTheCaller(t *testing.T) {
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("even", []byte("Even(0).\nEven(T) -> Even(T+2).\n")); err != nil {
		t.Fatal(err)
	}
	ctl := admission.New(admission.Options{Concurrency: 8, Config: admission.Config{
		Tenants: map[string]admission.Limits{"abuser": {Rate: 0.001, Burst: 8}}, // one batch, then shed for ages
	}})
	t.Cleanup(ctl.Close)
	shard := httptest.NewServer(server.New(reg, server.Config{Admission: ctl}).Handler())
	t.Cleanup(shard.Close)
	_, srv, _ := routerOver(t, &Map{Version: 1, Groups: []Group{{Name: "g", Primary: shard.URL}}})

	batch := func(key string) string {
		t.Helper()
		req, _ := http.NewRequest("POST", srv.URL+"/v1/batch", strings.NewReader(`{"queries":[{"db":"even","query":"?- Even(4)."}]}`))
		if key != "" {
			req.Header.Set("X-Api-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cross-batch as %q: %d %s", key, resp.StatusCode, raw)
		}
		return string(raw)
	}
	if got := batch("abuser"); !strings.Contains(got, `"answer":true`) {
		t.Fatalf("first batch, inside the burst: %s", got)
	}
	if got := batch("abuser"); !strings.Contains(got, "rate_limited") || strings.Contains(got, `"answer":true`) {
		t.Fatalf("second batch was not shed: the leg was charged to somebody else: %s", got)
	}
	for _, key := range []string{"", "bystander"} {
		if got := batch(key); !strings.Contains(got, `"answer":true`) {
			t.Fatalf("tenant %q paid for the abuser: %s", key, got)
		}
	}
}

// TestScatterLegsCarryTheCallersHeaders: every leg of GET /v1/dbs and of a
// cross-database batch is made on behalf of the caller — tenant key, the
// routing map's version, and the router's trace.
func TestScatterLegsCarryTheCallersHeaders(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]http.Header{}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path] = r.Header.Clone()
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if r.Method == "GET" {
			io.WriteString(w, `{"databases":[]}`)
		} else {
			io.WriteString(w, `{"results":[{"answer":true}]}`)
		}
	}))
	t.Cleanup(backend.Close)
	_, srv, _ := routerOver(t, &Map{Version: 4, Groups: []Group{{Name: "g", Primary: backend.URL}}})

	for _, rq := range []struct{ method, path, body string }{
		{"GET", "/v1/dbs", ""},
		{"POST", "/v1/batch", `{"queries":[{"db":"d","query":"q"}]}`},
	} {
		req, _ := http.NewRequest(rq.method, srv.URL+rq.path, strings.NewReader(rq.body))
		req.Header.Set("X-Api-Key", "tenant-a")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Request-Id") == "" || resp.Header.Get("X-Trace-Id") == "" {
			t.Errorf("%s %s: router-origin response without X-Request-Id/X-Trace-Id: %v", rq.method, rq.path, resp.Header)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, leg := range []string{"GET /v1/dbs", "POST /v1/db/d/batch"} {
		h := seen[leg]
		if h == nil {
			t.Fatalf("no %s leg reached the shard (saw %d legs)", leg, len(seen))
		}
		if h.Get("X-Api-Key") != "tenant-a" || h.Get("X-Funcdb-Router") != "v4" || h.Get("Traceparent") == "" {
			t.Errorf("%s leg lost the caller: key %q, router %q, traceparent %q",
				leg, h.Get("X-Api-Key"), h.Get("X-Funcdb-Router"), h.Get("Traceparent"))
		}
	}
}

// TestScatterRefusalIsNotANodeFailure: a shard's well-formed refusal — the
// 404 for an unknown database in a cross-db batch, a 429 shed — is the
// group's answer. It is not replayed on the group's other endpoints and does
// not mark the endpoint that gave it unhealthy; only an unreachable or
// failing node does.
func TestScatterRefusalIsNotANodeFailure(t *testing.T) {
	for _, tc := range []struct {
		name, envelope string
		status         int
	}{
		{"unknown database", `{"error":{"code":"not_found","message":"no database named \"nope\""}}`, http.StatusNotFound},
		{"shed", `{"error":{"code":"rate_limited","message":"tenant over budget"}}`, http.StatusTooManyRequests},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			hits := 0
			refuse := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/readyz" {
					return
				}
				mu.Lock()
				hits++
				mu.Unlock()
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(tc.status)
				io.WriteString(w, tc.envelope+"\n")
			})
			primary, replica := httptest.NewServer(refuse), httptest.NewServer(refuse)
			t.Cleanup(primary.Close)
			t.Cleanup(replica.Close)
			rt, srv, _ := routerOver(t, &Map{Version: 1, Groups: []Group{
				{Name: "g", Primary: primary.URL, Replicas: []string{replica.URL}}}})

			resp, err := http.Post(srv.URL+"/v1/batch", "application/json",
				strings.NewReader(`{"queries":[{"db":"nope","query":"q"}]}`))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"error":{"code":"shard_unavailable"`) {
				t.Fatalf("cross-batch: %d %s", resp.StatusCode, raw)
			}
			mu.Lock()
			defer mu.Unlock()
			if hits != 1 {
				t.Errorf("the refusal was replayed: %d backend requests, want 1", hits)
			}
			for _, ep := range []string{primary.URL, replica.URL} {
				if !rt.client.Ready(ep) {
					t.Errorf("%s was marked unhealthy by a well-formed %d", ep, tc.status)
				}
			}
		})
	}
}
