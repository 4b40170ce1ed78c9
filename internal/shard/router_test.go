package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"funcdb/internal/api"
)

// fakeShard is a minimal stand-in for an fdbd daemon: it records writes,
// serves a fixed database list, answers per-db batches, and streams watch
// frames until the request context ends.
type fakeShard struct {
	name  string // for assertions: which backend served
	dbs   []string
	ready bool
	srv   *httptest.Server

	mu     sync.Mutex
	writes []string
}

func newFakeShard(t *testing.T, name string, dbs ...string) *fakeShard {
	f := &fakeShard{name: name, dbs: dbs, ready: true}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/dbs", func(w http.ResponseWriter, r *http.Request) {
		var infos []map[string]any
		for _, db := range f.dbs {
			infos = append(infos, map[string]any{"name": db})
		}
		api.WriteJSON(w, http.StatusOK, map[string]any{"databases": infos})
	})
	mux.HandleFunc("GET /v1/db/{name}", func(w http.ResponseWriter, r *http.Request) {
		api.WriteJSON(w, http.StatusOK, map[string]any{"name": r.PathValue("name"), "served_by": f.name})
	})
	mux.HandleFunc("PUT /v1/db/{name}", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.writes = append(f.writes, r.PathValue("name"))
		f.mu.Unlock()
		api.WriteJSON(w, http.StatusOK, map[string]any{"name": r.PathValue("name"), "version": 1})
	})
	mux.HandleFunc("POST /v1/db/{name}/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Queries []string `json:"queries"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		var results []map[string]any
		for _, q := range req.Queries {
			// Answer true iff the query mentions the shard's name, so the
			// test can verify answers came from the right shard.
			results = append(results, map[string]any{"query": q, "answer": strings.Contains(q, f.name)})
		}
		api.WriteJSON(w, http.StatusOK, map[string]any{"results": results, "version": 1})
	})
	mux.HandleFunc("POST /v1/db/{name}/watch", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fl := w.(http.Flusher)
		fmt.Fprintf(w, "{\"type\":\"init\",\"shard\":%q}\n", f.name)
		fl.Flush()
		<-r.Context().Done()
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func routerOver(t *testing.T, m *Map) (*Router, *httptest.Server, *Source) {
	src := NewSource(m)
	t.Cleanup(func() { src.Close() })
	rt := NewRouter(src, Options{ShardTimeout: 2 * time.Second})
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	return rt, srv, src
}

func twoGroups(t *testing.T) (*fakeShard, *fakeShard, *Map) {
	a := newFakeShard(t, "a-primary", "alpha")
	b := newFakeShard(t, "b-primary", "beta")
	m := &Map{Version: 1, Groups: []Group{
		{Name: "ga", Primary: a.srv.URL},
		{Name: "gb", Primary: b.srv.URL},
	}, Overrides: map[string]string{"alpha": "ga", "beta": "gb"}}
	return a, b, m
}

func TestRouterWriteGoesToOwnerPrimary(t *testing.T) {
	a, b, m := twoGroups(t)
	_, srv, _ := routerOver(t, m)

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/db/alpha", strings.NewReader(`{}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Funcdb-Shard"); got != "ga" {
		t.Fatalf("served by group %q, want ga", got)
	}
	if len(a.writes) != 1 || a.writes[0] != "alpha" {
		t.Fatalf("group a writes: %v", a.writes)
	}
	if len(b.writes) != 0 {
		t.Fatalf("group b saw a write it does not own: %v", b.writes)
	}
}

func TestRouterFrozenWriteIs409WithRetryAfter(t *testing.T) {
	_, _, m := twoGroups(t)
	m.Frozen = []string{"alpha"}
	_, srv, _ := routerOver(t, m)

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/db/alpha", strings.NewReader(`{}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("frozen write status %d: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("frozen 409 missing Retry-After")
	}
	if !bytes.Contains(raw, []byte(`"resharding"`)) {
		t.Fatalf("frozen 409 body %s lacks resharding code", raw)
	}
	// Reads keep serving while frozen.
	rresp, err := http.Get(srv.URL + "/v1/db/alpha")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("frozen read status %d", rresp.StatusCode)
	}
}

func TestRouterReadFailsOverToReplica(t *testing.T) {
	a, _, _ := twoGroups(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from now on
	m := &Map{Version: 1, Groups: []Group{
		{Name: "ga", Primary: dead.URL, Replicas: []string{a.srv.URL}},
	}, Overrides: map[string]string{"alpha": "ga"}}
	rt, srv, _ := routerOver(t, m)

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/db/alpha")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			ServedBy string `json:"served_by"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || body.ServedBy != "a-primary" {
			t.Fatalf("read %d: status %d served_by %q", i, resp.StatusCode, body.ServedBy)
		}
	}
	if rt.mFailovers.Value() == 0 && !rt.client.Ready(a.srv.URL) {
		t.Fatal("neither failover nor health cache engaged")
	}
}

func TestRouterScatterGatherPartial(t *testing.T) {
	a, b, m := twoGroups(t)
	_ = a
	b.srv.Close() // group b is down
	_, srv, _ := routerOver(t, m)

	resp, err := http.Get(srv.URL + "/v1/dbs")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Databases []map[string]any `json:"databases"`
		Partial   bool             `json:"partial"`
		Failed    []shardFailure   `json:"failed"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !body.Partial || len(body.Failed) != 1 || body.Failed[0].Group != "gb" {
		t.Fatalf("partial envelope wrong: partial=%v failed=%v", body.Partial, body.Failed)
	}
	if len(body.Databases) != 1 || body.Databases[0]["name"] != "alpha" {
		t.Fatalf("databases: %v", body.Databases)
	}
}

func TestRouterScatterGatherMergesAll(t *testing.T) {
	_, _, m := twoGroups(t)
	_, srv, _ := routerOver(t, m)
	resp, err := http.Get(srv.URL + "/v1/dbs")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Databases []map[string]any `json:"databases"`
		Partial   bool             `json:"partial"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if body.Partial || len(body.Databases) != 2 {
		t.Fatalf("merge wrong: %+v", body)
	}
}

func TestRouterCrossBatch(t *testing.T) {
	_, _, m := twoGroups(t)
	_, srv, _ := routerOver(t, m)
	payload := `{"queries":[
		{"db":"alpha","query":"serves a-primary?"},
		{"db":"beta","query":"serves b-primary?"},
		{"db":"alpha","query":"serves b-primary?"},
		{"db":"","query":"no db"}]}`
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Results []crossBatchItem `json:"results"`
	}
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if len(body.Results) != 4 {
		t.Fatalf("results: %+v", body.Results)
	}
	want := []struct {
		answer *bool
		err    bool
	}{{boolp(true), false}, {boolp(true), false}, {boolp(false), false}, {nil, true}}
	for i, w := range want {
		got := body.Results[i]
		if w.err != (got.Error != nil) {
			t.Errorf("result %d: error presence %v, want %v", i, got.Error != nil, w.err)
		}
		if w.answer != nil && (got.Answer == nil || *got.Answer != *w.answer) {
			t.Errorf("result %d: answer %v, want %v", i, got.Answer, *w.answer)
		}
	}
}

func boolp(b bool) *bool { return &b }

func TestRouterWatchPassthroughAndCutOnMove(t *testing.T) {
	_, _, m := twoGroups(t)
	_, srv, src := routerOver(t, m)

	resp, err := http.Post(srv.URL+"/v1/db/alpha/watch", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil || !strings.Contains(line, "a-primary") {
		t.Fatalf("first frame %q err %v", line, err)
	}
	// Flip the map so alpha moves to gb: the proxied stream must be cut.
	next := m.Clone()
	next.Version = 2
	next.Overrides["alpha"] = "gb"
	if err := src.Install(next); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := br.ReadString('\n')
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stream delivered a frame after its db moved")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream not cut after shard map flip")
	}
}

func TestRouterShardMapEndpoints(t *testing.T) {
	_, _, m := twoGroups(t)
	_, srv, _ := routerOver(t, m)

	resp, err := http.Get(srv.URL + "/v1/shardmap")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got, err := DecodeMap(raw)
	if err != nil || got.Version != 1 {
		t.Fatalf("GET shardmap: %v %v", err, got)
	}

	next := got.Clone()
	next.Version = 2
	next.Frozen = []string{"alpha"}
	enc, _ := EncodeMap(next)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/shardmap?drain=alpha&drain_timeout=2s", bytes.NewReader(enc))
	put, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Version uint64 `json:"version"`
		Drained bool   `json:"drained"`
	}
	json.NewDecoder(put.Body).Decode(&body)
	put.Body.Close()
	if put.StatusCode != http.StatusOK || body.Version != 2 || !body.Drained {
		t.Fatalf("PUT shardmap: status %d body %+v", put.StatusCode, body)
	}

	// Stale map is refused.
	stale, _ := EncodeMap(m)
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/v1/shardmap", bytes.NewReader(stale))
	conflict, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	conflict.Body.Close()
	if conflict.StatusCode != http.StatusConflict {
		t.Fatalf("stale PUT status %d", conflict.StatusCode)
	}
}

func TestRouterUnreadyWithoutMap(t *testing.T) {
	_, srv, _ := routerOver(t, nil)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz without map: %d", resp.StatusCode)
	}
	ask, err := http.Get(srv.URL + "/v1/db/alpha")
	if err != nil {
		t.Fatal(err)
	}
	ask.Body.Close()
	if ask.StatusCode != http.StatusServiceUnavailable || ask.Header.Get("Retry-After") == "" {
		t.Fatalf("proxy without map: %d Retry-After=%q", ask.StatusCode, ask.Header.Get("Retry-After"))
	}
}

// TestRouterShedPassthrough: an admission shed from a shard (429
// rate_limited, 503 overloaded) must reach the client unmodified — same
// status, same error code, same Retry-After — and must NOT be retried
// against another endpoint of the group: the tenant's budget is exhausted
// cluster-wide, so a replica would only shed again. The tenant's API key
// rides through to the backend so the shard charges the right bucket.
func TestRouterShedPassthrough(t *testing.T) {
	cases := []struct {
		status int
		code   string
	}{
		{http.StatusTooManyRequests, "rate_limited"},
		{http.StatusServiceUnavailable, "overloaded"},
	}
	for _, tc := range cases {
		t.Run(tc.code, func(t *testing.T) {
			var mu sync.Mutex
			hits := 0
			var seenKey string
			shed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/readyz" {
					w.WriteHeader(http.StatusOK)
					return
				}
				mu.Lock()
				hits++
				seenKey = r.Header.Get("X-Api-Key")
				mu.Unlock()
				w.Header().Set("Retry-After", "7")
				api.WriteJSON(w, tc.status, map[string]any{
					"error": map[string]any{"code": tc.code, "message": "tenant over budget"},
				})
			})
			// Both endpoints shed, so a wrongful retry shows up as hits > 1
			// no matter which endpoint round-robin picks first.
			primary := httptest.NewServer(shed)
			replica := httptest.NewServer(shed)
			t.Cleanup(primary.Close)
			t.Cleanup(replica.Close)
			m := &Map{Version: 1, Groups: []Group{
				{Name: "ga", Primary: primary.URL, Replicas: []string{replica.URL}},
			}, Overrides: map[string]string{"alpha": "ga"}}
			_, srv, _ := routerOver(t, m)

			req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/db/alpha", nil)
			req.Header.Set("X-Api-Key", "abuser")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			if got := resp.Header.Get("Retry-After"); got != "7" {
				t.Fatalf("Retry-After %q did not pass through", got)
			}
			if !bytes.Contains(raw, []byte(`"`+tc.code+`"`)) {
				t.Fatalf("shed body %s lost code %q", raw, tc.code)
			}
			mu.Lock()
			defer mu.Unlock()
			if hits != 1 {
				t.Fatalf("shed retried: %d backend requests, want 1", hits)
			}
			if seenKey != "abuser" {
				t.Fatalf("backend saw X-Api-Key %q, want abuser", seenKey)
			}
		})
	}
}

// BenchmarkRouteAsk proxies an ask of the given body size through the
// router's handler to a one-endpoint group over loopback: the router's own
// share of a routed ask (the backend answers a constant).
func BenchmarkRouteAsk(b *testing.B) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"answer":true,"version":1,"cached":true}`+"\n")
	}))
	defer backend.Close()
	src := NewSource(&Map{Version: 1, Groups: []Group{{Name: "g", Primary: backend.URL}}})
	defer src.Close()
	rt := NewRouter(src, Options{})
	defer rt.Close()
	for _, size := range []int{64, 8 << 10} {
		body := []byte(`{"query":"` + strings.Repeat("x", size) + `"}`)
		b.Run(fmt.Sprintf("body%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				r, _ := http.NewRequest("POST", "/v1/db/d/ask", bytes.NewReader(body))
				rt.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
			}
		})
	}
}
