package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/obs"
	"funcdb/internal/registry"
)

const evenSrc = `
Even(0).
Even(T) -> Even(T+2).
`

const meetingsSrc = `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`

func exportDoc(t testing.TB, src string) []byte {
	t.Helper()
	db, err := core.Open(src, core.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var buf bytes.Buffer
	if err := db.Export(&buf); err != nil {
		t.Fatalf("Export: %v", err)
	}
	return buf.Bytes()
}

// newTestServer spins up an httptest server over a registry preloaded with
// a program entry "even" and a spec entry "evenspec".
func newTestServer(t testing.TB, cfg Config) (*Server, *registry.Registry, *httptest.Server) {
	t.Helper()
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutSpec("evenspec", exportDoc(t, evenSrc)); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, reg, ts
}

// newBareServer is newTestServer without the spec entry, for tests that
// count what a request leaves behind.
func newBareServer(t testing.TB, cfg Config, name, src string) *Server {
	t.Helper()
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram(name, []byte(src)); err != nil {
		t.Fatal(err)
	}
	return New(reg, cfg)
}

func doJSON(t testing.TB, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		switch b := body.(type) {
		case string:
			rd = strings.NewReader(b)
		case []byte:
			rd = bytes.NewReader(b)
		default:
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(raw) > 0 && json.Valid(raw) {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("unmarshal %q: %v", raw, err)
		}
	}
	return resp.StatusCode, out
}

// errMessage pulls the message out of the {"error":{"code","message"}}
// envelope; empty when the body carries no error.
func errMessage(body map[string]any) string {
	env, ok := body["error"].(map[string]any)
	if !ok {
		return ""
	}
	msg, _ := env["message"].(string)
	return msg
}

// errCode pulls the machine-readable code out of the error envelope.
func errCode(body map[string]any) string {
	env, ok := body["error"].(map[string]any)
	if !ok {
		return ""
	}
	code, _ := env["code"].(string)
	return code
}

func TestHealthz(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	code, body := doJSON(t, "GET", ts.URL+"/healthz", nil)
	if code != http.StatusOK || body["status"] != "ok" || body["databases"].(float64) != 2 {
		t.Fatalf("healthz = %d %v", code, body)
	}
}

func TestAskProgramAndSpec(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		db, query, via string
		want           bool
	}{
		{"even", "?- Even(4).", "", true},
		{"even", "?- Even(5).", "", false},
		{"even", "?- Even(4).", "cc", true},
		{"evenspec", "Even(4)", "", true},
		{"evenspec", "Even(5)", "cc", false},
	} {
		code, body := doJSON(t, "POST", ts.URL+"/v1/db/"+tc.db+"/ask",
			map[string]any{"query": tc.query, "via": tc.via})
		if code != http.StatusOK {
			t.Fatalf("ask %s %q: %d %v", tc.db, tc.query, code, body)
		}
		if body["answer"].(bool) != tc.want {
			t.Errorf("ask %s %q via %q = %v, want %v", tc.db, tc.query, tc.via, body["answer"], tc.want)
		}
	}
}

func TestAskCacheHitAndReloadInvalidation(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	ask := func() (bool, bool) {
		code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(4)."})
		if code != http.StatusOK {
			t.Fatalf("ask: %d %v", code, body)
		}
		return body["answer"].(bool), body["cached"].(bool)
	}
	if ans, cached := ask(); !ans || cached {
		t.Fatalf("first ask = %v cached %v", ans, cached)
	}
	if ans, cached := ask(); !ans || !cached {
		t.Fatalf("second ask = %v cached %v, want cache hit", ans, cached)
	}
	// Whitespace differences share the cache slot.
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": " ?-   Even(4).  "})
	if code != http.StatusOK || body["cached"] != true {
		t.Fatalf("normalized ask = %d %v, want cache hit", code, body)
	}
	// Hot reload bumps the version, so the old slot no longer matches.
	if code, body := doJSON(t, "PUT", ts.URL+"/v1/db/even", evenSrc); code != http.StatusOK {
		t.Fatalf("reload: %d %v", code, body)
	}
	if ans, cached := ask(); !ans || cached {
		t.Fatalf("post-reload ask = %v cached %v, want miss", ans, cached)
	}
}

func TestAnswersEndpoint(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	if _, err := reg.PutProgram("meet", []byte(meetingsSrc)); err != nil {
		t.Fatal(err)
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/meet/answers",
		map[string]any{"query": "?- Meets(T, X).", "depth": 4})
	if code != http.StatusOK {
		t.Fatalf("answers: %d %v", code, body)
	}
	if body["count"].(float64) != 5 || body["truncated"].(bool) {
		t.Fatalf("answers = %v", body)
	}
	first := body["tuples"].([]any)[0].(map[string]any)
	if first["term"] != "0" || first["args"].([]any)[0] != "tony" {
		t.Fatalf("first tuple = %v", first)
	}
	// Limit truncates and reports it.
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/meet/answers",
		map[string]any{"query": "?- Meets(T, X).", "depth": 4, "limit": 2})
	if code != http.StatusOK || body["count"].(float64) != 2 || !body["truncated"].(bool) {
		t.Fatalf("limited answers = %d %v", code, body)
	}
	// Second identical request hits the cache.
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/meet/answers",
		map[string]any{"query": "?- Meets(T, X).", "depth": 4, "limit": 2})
	if code != http.StatusOK || !body["cached"].(bool) {
		t.Fatalf("repeat answers = %d %v, want cache hit", code, body)
	}
	// Spec entries cannot answer open queries.
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/evenspec/answers",
		map[string]any{"query": "?- Even(T).", "depth": 4})
	if code != http.StatusBadRequest {
		t.Fatalf("answers on spec = %d %v", code, body)
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	code, body := doJSON(t, "GET", ts.URL+"/v1/db/even/explain?q="+
		"%3F-%20Even(4).", nil)
	if code != http.StatusOK {
		t.Fatalf("explain: %d %v", code, body)
	}
	if !strings.Contains(body["explanation"].(string), "true") {
		t.Fatalf("explanation = %v", body["explanation"])
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/db/even/explain", nil); code != http.StatusBadRequest {
		t.Fatalf("explain without q = %d", code)
	}
}

// TestOutsideAlphabetIsFalse: a ground ask over a symbol the specification's
// alphabet lacks is 200 false by either method — it used to be a 400 naming
// an internal symbol id — and its explanation names the symbol.
func TestOutsideAlphabetIsFalse(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	for name, src := range map[string]string{"rob": datagen.RobotSrc(8), "sub": datagen.SubsetsSrc(6)} {
		if _, err := reg.PutProgram(name, []byte(src)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ db, query, symbol string }{
		{"rob", "?- At(move(0, p0, p9), p9).", "move'p0'p9"},
		{"sub", "?- Member(foo(0), e1).", "foo"},
		{"sub", "?- Member(3, e1).", "succ"},
	} {
		for _, via := range []string{"", "cc"} {
			code, body := doJSON(t, "POST", ts.URL+"/v1/db/"+tc.db+"/ask", map[string]any{"query": tc.query, "via": via})
			if code != http.StatusOK || body["answer"] != false {
				t.Errorf("%s %s via %q: %d %v; want 200 false", tc.db, tc.query, via, code, body)
			}
		}
		code, body := doJSON(t, "GET", ts.URL+"/v1/db/"+tc.db+"/explain?q="+url.QueryEscape(tc.query), nil)
		if ex, _ := body["explanation"].(string); code != http.StatusOK || !strings.Contains(ex, tc.symbol+" is not in the specification's alphabet") {
			t.Errorf("%s explain %s: %d %v; want it to name %s", tc.db, tc.query, code, body, tc.symbol)
		}
	}
}

func TestListInfoPutDelete(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	code, body := doJSON(t, "GET", ts.URL+"/v1/dbs", nil)
	if code != http.StatusOK || len(body["databases"].([]any)) != 2 {
		t.Fatalf("list = %d %v", code, body)
	}
	code, body = doJSON(t, "GET", ts.URL+"/v1/db/even", nil)
	if code != http.StatusOK || body["kind"] != "program" {
		t.Fatalf("info = %d %v", code, body)
	}
	stats := body["stats"].(map[string]any)
	if stats["representatives"].(float64) < 1 {
		t.Fatalf("stats = %v", stats)
	}
	code, body = doJSON(t, "GET", ts.URL+"/v1/db/evenspec", nil)
	if code != http.StatusOK || body["kind"] != "spec" {
		t.Fatalf("spec info = %d %v", code, body)
	}
	// Fresh PUT creates (201), reload returns 200.
	code, body = doJSON(t, "PUT", ts.URL+"/v1/db/fresh", evenSrc)
	if code != http.StatusCreated || body["version"].(float64) != 1 {
		t.Fatalf("create = %d %v", code, body)
	}
	code, body = doJSON(t, "PUT", ts.URL+"/v1/db/fresh", evenSrc)
	if code != http.StatusOK || body["version"].(float64) != 2 {
		t.Fatalf("reload = %d %v", code, body)
	}
	// PUT sniffs JSON documents as specs.
	code, body = doJSON(t, "PUT", ts.URL+"/v1/db/freshspec", exportDoc(t, evenSrc))
	if code != http.StatusCreated || body["kind"] != "spec" {
		t.Fatalf("spec create = %d %v", code, body)
	}
	if code, _ := doJSON(t, "DELETE", ts.URL+"/v1/db/fresh", nil); code != http.StatusNoContent {
		t.Fatalf("delete = %d", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/db/fresh", nil); code != http.StatusNotFound {
		t.Fatalf("info after delete = %d", code)
	}
}

func TestErrorPaths(t *testing.T) {
	_, _, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	cases := []struct {
		name, method, path string
		body               any
		want               int
	}{
		{"ask unknown db", "POST", "/v1/db/nope/ask", map[string]any{"query": "?- Even(0)."}, 404},
		{"delete unknown db", "DELETE", "/v1/db/nope", nil, 404},
		{"info unknown db", "GET", "/v1/db/nope", nil, 404},
		{"explain unknown db", "GET", "/v1/db/nope/explain?q=x", nil, 404},
		{"ask bad json", "POST", "/v1/db/even/ask", `{"query":`, 400},
		{"ask empty query", "POST", "/v1/db/even/ask", map[string]any{"query": "  "}, 400},
		{"ask bad via", "POST", "/v1/db/even/ask", map[string]any{"query": "?- Even(0).", "via": "magic"}, 400},
		{"ask unparsable query", "POST", "/v1/db/even/ask", map[string]any{"query": "?- Even("}, 400},
		{"ask unknown field", "POST", "/v1/db/even/ask", `{"query":"?- Even(0).","bogus":1}`, 400},
		{"answers negative depth", "POST", "/v1/db/even/answers", map[string]any{"query": "?- Even(T).", "depth": -1}, 400},
		{"answers huge depth", "POST", "/v1/db/even/answers", map[string]any{"query": "?- Even(T).", "depth": 10000}, 400},
		{"answers negative limit", "POST", "/v1/db/even/answers", map[string]any{"query": "?- Even(T).", "limit": -2}, 400},
		{"put invalid name", "PUT", "/v1/db/bad%20name!", evenSrc, 400},
		{"put empty body", "PUT", "/v1/db/empty", "", 400},
		{"put unparsable program", "PUT", "/v1/db/broken", "Even(", 400},
		{"put oversized body", "PUT", "/v1/db/big", strings.Repeat("x", 1024), 413},
		{"ask oversized body", "POST", "/v1/db/even/ask", `{"query":"` + strings.Repeat("x", 1024) + `"}`, 413},
		{"wrong method", "GET", "/v1/db/even/ask", nil, 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
			if code != tc.want {
				t.Fatalf("%s %s = %d %v, want %d", tc.method, tc.path, code, body, tc.want)
			}
			if tc.want != 405 && errMessage(body) == "" {
				t.Fatalf("missing error message: %v", body)
			}
		})
	}
}

func TestMetricsExposition(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(4)."})
	doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(4)."})
	doJSON(t, "POST", ts.URL+"/v1/db/nope/ask", map[string]any{"query": "?- Even(4)."})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"# TYPE funcdbd_requests_total counter",
		"# TYPE funcdbd_request_duration_seconds histogram",
		`funcdbd_requests_total{endpoint="ask"} 3`,
		`funcdbd_errors_total{endpoint="ask"} 1`,
		`funcdbd_cache_hits_total{endpoint="ask"} 1`,
		`funcdbd_cache_misses_total{endpoint="ask"} 1`,
		`funcdbd_databases 2`,
		`funcdbd_cache_entries 1`,
		`funcdbd_request_duration_seconds_count{endpoint="ask"} 3`,
		`funcdbd_request_duration_seconds_bucket{endpoint="ask",le="+Inf"} 3`,
		"funcdb_engine_terms_interned_total",
		"funcdb_engine_max_derivation_depth",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	if err := obs.CheckExposition(text); err != nil {
		t.Errorf("exposition not well-formed: %v", err)
	}

	// The legacy flat-JSON view is gone; Prometheus text is the only
	// exposition now.
	code, _ := doJSON(t, "GET", ts.URL+"/metrics.json", nil)
	if code != http.StatusNotFound {
		t.Fatalf("/metrics.json = %d, want 404", code)
	}
}

// TestConcurrentScrape races 8 scrapers of /metrics against 8 goroutines
// issuing queries and fact extensions; run under -race. Every scrape must
// come back as well-formed exposition text.
func TestConcurrentScrape(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	const (
		scrapers = 8
		loaders  = 8
		iters    = 12
	)
	var wg sync.WaitGroup
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err := obs.CheckExposition(string(raw)); err != nil {
					t.Errorf("scrape %d: %v", i, err)
					return
				}
			}
		}()
	}
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if g%2 == 0 {
					n := (g + i) % 8
					code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/ask",
						map[string]any{"query": fmt.Sprintf("?- Even(%d).", n), "trace": i%3 == 0})
					if code != http.StatusOK {
						t.Errorf("ask: %d %v", code, body)
						return
					}
				} else {
					code, _ := doJSON(t, "POST", ts.URL+"/v1/db/even/facts",
						map[string]any{"facts": fmt.Sprintf("Even(%d).", 2*(g*iters+i)+101)})
					if code != http.StatusOK {
						t.Errorf("facts: %d", code)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentMixedLoad hammers the server with 32+ goroutines mixing
// ask, answers, explain, list and hot reloads; run under -race.
func TestConcurrentMixedLoad(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	if _, err := reg.PutProgram("meet", []byte(meetingsSrc)); err != nil {
		t.Fatal(err)
	}
	const (
		readers = 24
		writers = 8
		iters   = 15
	)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0:
					n := (g + i) % 8
					code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/ask",
						map[string]any{"query": fmt.Sprintf("?- Even(%d).", n)})
					if code != http.StatusOK {
						t.Errorf("ask: %d %v", code, body)
						return
					}
					if body["answer"].(bool) != (n%2 == 0) {
						t.Errorf("ask Even(%d) = %v", n, body["answer"])
						return
					}
				case 1:
					code, body := doJSON(t, "POST", ts.URL+"/v1/db/meet/answers",
						map[string]any{"query": "?- Meets(T, X).", "depth": 4})
					if code != http.StatusOK {
						t.Errorf("answers: %d %v", code, body)
						return
					}
				case 2:
					code, _ := doJSON(t, "GET", ts.URL+"/v1/db/even/explain?q=%3F-%20Even(2).", nil)
					if code != http.StatusOK {
						t.Errorf("explain: %d", code)
						return
					}
				case 3:
					if code, _ := doJSON(t, "GET", ts.URL+"/v1/dbs", nil); code != http.StatusOK {
						t.Errorf("list: %d", code)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var code int
				if g%2 == 0 {
					code, _ = doJSON(t, "PUT", ts.URL+"/v1/db/even", evenSrc)
				} else {
					code, _ = doJSON(t, "PUT", ts.URL+"/v1/db/meet", meetingsSrc)
				}
				if code != http.StatusOK && code != http.StatusCreated {
					t.Errorf("reload: %d", code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFactsEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})

	// The new fact becomes visible and bumps the version.
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(3)."})
	if code != http.StatusOK || body["answer"] != false {
		t.Fatalf("pre-facts ask: %d %v", code, body)
	}
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/even/facts", map[string]any{"facts": "Even(3)."})
	if code != http.StatusOK {
		t.Fatalf("facts: %d %v", code, body)
	}
	if body["version"] != float64(2) {
		t.Fatalf("facts version = %v, want 2", body["version"])
	}
	// The old version's cached "false" must not be served: the version bump
	// changes the cache key.
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(3)."})
	if code != http.StatusOK || body["answer"] != true {
		t.Fatalf("post-facts ask: %d %v", code, body)
	}
	if body["version"] != float64(2) {
		t.Fatalf("post-facts ask version = %v, want 2", body["version"])
	}

	// Error paths: unknown database is 404; bad syntax is 400 with a message.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/nosuch/facts", map[string]any{"facts": "Even(3)."}); code != http.StatusNotFound {
		t.Fatalf("facts on missing db: %d, want 404", code)
	}
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/even/facts", map[string]any{"facts": "not ( valid"})
	if code != http.StatusBadRequest || errMessage(body) == "" {
		t.Fatalf("bad facts: %d %v, want 400 with error body", code, body)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/even/facts", map[string]any{"facts": "  "}); code != http.StatusBadRequest {
		t.Fatalf("empty facts: %d, want 400", code)
	}
	// Spec entries carry no rules and cannot be extended.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/evenspec/facts", map[string]any{"facts": "Even(3)."}); code != http.StatusBadRequest {
		t.Fatalf("facts on spec entry: %d, want 400", code)
	}
}

func TestExtraGauges(t *testing.T) {
	reg := registry.New(core.Options{})
	srv := New(reg, Config{ExtraGauges: func() map[string]int64 {
		return map[string]int64{"wal_bytes": 12345, "snapshots_total": 7}
	}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{"funcdbd_wal_bytes 12345", "funcdbd_snapshots_total 7"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// traceReport pulls the "trace" block out of a response body.
func traceReport(t *testing.T, body map[string]any) (spans []map[string]any, counters map[string]any) {
	t.Helper()
	tr, ok := body["trace"].(map[string]any)
	if !ok {
		t.Fatalf("response has no trace block: %v", body)
	}
	if id, _ := tr["id"].(string); id == "" {
		t.Errorf("trace has no id: %v", tr)
	}
	for _, s := range tr["spans"].([]any) {
		spans = append(spans, s.(map[string]any))
	}
	counters, _ = tr["counters"].(map[string]any)
	return spans, counters
}

func spanNames(spans []map[string]any) map[string]int {
	names := make(map[string]int)
	for _, s := range spans {
		names[s["name"].(string)]++
	}
	return names
}

// TestTraceBlock exercises the opt-in per-request trace: a non-uniform
// query recomputes the whole pipeline, so its trace must report the
// compile/solve stages, at least one fixpoint-iteration span, and a
// nonzero derivation-depth counter from Algorithm Q.
func TestTraceBlock(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})

	// Even(T+2) has function structure over a variable base: non-uniform,
	// answered by Recompute on an enlarged program.
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/answers",
		map[string]any{"query": "?- Even(T+2).", "trace": true, "depth": 3})
	if code != http.StatusOK {
		t.Fatalf("answers = %d %v", code, body)
	}
	spans, counters := traceReport(t, body)
	names := spanNames(spans)
	for _, want := range []string{"parse", "compile", "solve", "algoq"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q span; have %v", want, names)
		}
	}
	if names["fixpoint_round"] < 1 {
		t.Errorf("trace has %d fixpoint_round spans, want >= 1; spans: %v", names["fixpoint_round"], names)
	}
	if d, _ := counters["derivation_depth"].(float64); d <= 0 {
		t.Errorf("derivation_depth counter = %v, want > 0; counters: %v", counters["derivation_depth"], counters)
	}
	for _, s := range spans {
		if s["dur_us"].(float64) < 0 {
			t.Errorf("span %v reported negative duration", s)
		}
	}

	// An untraced request reports no trace block.
	_, body = doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(4)."})
	if _, ok := body["trace"]; ok {
		t.Errorf("untraced ask leaked a trace block: %v", body)
	}

	// A ground ask via congruence closure records the congruence stage and
	// the size of the equation set Cl(R) is derived from.
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/even/ask",
		map[string]any{"query": "?- Even(4).", "via": "cc", "trace": true})
	if code != http.StatusOK {
		t.Fatalf("ask via cc = %d %v", code, body)
	}
	spans, counters = traceReport(t, body)
	if names := spanNames(spans); names["congruence"] == 0 {
		t.Errorf("cc trace missing congruence span; have %v", names)
	}
	if eq, _ := counters["equations"].(float64); eq <= 0 {
		t.Errorf("equations counter = %v, want > 0", counters["equations"])
	}
}

// TestAnswerSpecIsVisible: a traced answers request shows whether it
// computed the query's answer specification (the stages of the build) or
// read the one already on the plan (a zero-length answer_spec_hit span), and
// /metrics counts both next to the plan cache's pair.
func TestAnswerSpecIsVisible(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ query, built string }{
		{"?- Even(T).", "answers_incremental"},
		{"?- Even(T+2).", "compile"},
	} {
		for i, want := range []string{tc.built, "answer_spec_hit"} {
			code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/answers",
				map[string]any{"query": tc.query, "trace": true, "depth": 3})
			if code != http.StatusOK {
				t.Fatalf("%s: %d %v", tc.query, code, body)
			}
			spans, _ := traceReport(t, body)
			names := spanNames(spans)
			if names[want] != 1 || names["enumerate"] != 1 {
				t.Errorf("%s, request %d: want one %q span and one enumerate span; have %v", tc.query, i+1, want, names)
			}
			if i == 1 && names[tc.built]+names["algoq"] != 0 {
				t.Errorf("%s: the second request built again: %v", tc.query, names)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, family := range []string{"funcdb_engine_answer_spec_builds_total", "funcdb_engine_answer_spec_hits_total"} {
		// The sink is the process's: other tests add to it, none takes away.
		var n int
		if i := strings.Index(string(raw), "\n"+family+" "); i < 0 {
			t.Errorf("/metrics has no %s", family)
		} else if fmt.Sscan(string(raw)[i+len(family)+2:], &n); n < 2 {
			t.Errorf("%s = %d after two builds and two hits", family, n)
		}
	}
}

// TestReadyzEnvelope: a failing readiness probe must use the standard
// error envelope and count in funcdbd_errors_total.
func TestReadyzEnvelope(t *testing.T) {
	_, _, ts := newTestServer(t, Config{Ready: func() error { return fmt.Errorf("replica lag 12s over bound") }})
	code, body := doJSON(t, "GET", ts.URL+"/readyz", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d %v, want 503", code, body)
	}
	if errCode(body) != "not_ready" || !strings.Contains(errMessage(body), "replica lag") {
		t.Fatalf("readyz envelope = %v", body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), `funcdbd_errors_total{endpoint="readyz"} 1`) {
		t.Errorf("readyz failure not counted in errors_total")
	}
}
