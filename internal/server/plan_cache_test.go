package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"funcdb/internal/obs"
	"funcdb/internal/parser"
)

// TestShapeKeyedCacheSharesSpellings: the /ask answer cache keys program
// entries on the compiled plan's canonical shape, so whitespace and
// variable-name respellings of one query hit the same slot.
func TestShapeKeyedCacheSharesSpellings(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})

	code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(4)."})
	if code != http.StatusOK {
		t.Fatalf("ask = %d %v", code, body)
	}
	if body["cached"] != false {
		t.Fatalf("first ask reported cached: %v", body)
	}
	// A respelled variant of the same query must be a cache hit.
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?-   Even( 4 )  ."})
	if code != http.StatusOK {
		t.Fatalf("respelled ask = %d %v", code, body)
	}
	if body["cached"] != true {
		t.Errorf("respelled ask missed the shape-keyed cache: %v", body)
	}
	if body["answer"] != true {
		t.Errorf("respelled ask answer = %v, want true", body["answer"])
	}

	// Open queries share through α-renaming of variables.
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/even/answers", map[string]any{"query": "?- Even(T).", "depth": 3})
	if code != http.StatusOK {
		t.Fatalf("answers = %d %v", code, body)
	}
	if body["cached"] != false {
		t.Fatalf("first answers reported cached: %v", body)
	}
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/even/answers", map[string]any{"query": "?- Even(U).", "depth": 3})
	if code != http.StatusOK {
		t.Fatalf("renamed answers = %d %v", code, body)
	}
	if body["cached"] != true {
		t.Errorf("variable-renamed answers missed the shape-keyed cache: %v", body)
	}
}

// TestNoStaleAnswerAfterFactsBump is the staleness regression for the
// shape-keyed caches: a verdict cached before a /facts version bump must
// never be served afterwards — neither by the server's answer cache nor by
// a stale compiled plan underneath it.
func TestNoStaleAnswerAfterFactsBump(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})

	// Even(3) is false and gets cached under (version 1, shape).
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(3)."})
	if code != http.StatusOK || body["answer"] != false {
		t.Fatalf("pre-bump ask = %d %v, want false", code, body)
	}
	// Warm the slot: a repeat is a hit on the old version.
	_, body = doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(3)."})
	if body["cached"] != true {
		t.Fatalf("warming ask not cached: %v", body)
	}

	// Extend bumps the version; Even(3) becomes derivable (and so does
	// Even(5) through the rule).
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/even/facts", map[string]any{"facts": "Even(3)."})
	if code != http.StatusOK {
		t.Fatalf("facts = %d %v", code, body)
	}

	for _, q := range []string{"?- Even(3).", "?-  Even( 3 ).", "?- Even(5)."} {
		code, body = doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": q})
		if code != http.StatusOK {
			t.Fatalf("post-bump ask(%s) = %d %v", q, code, body)
		}
		if body["answer"] != true {
			t.Errorf("post-bump ask(%s) = %v, want true (stale answer served)", q, body)
		}
	}
}

// planLookups counts plan-cache lookups (hits + misses) made while f runs.
func planLookups(t *testing.T, f func()) int64 {
	t.Helper()
	sink := &obs.EngineStats{}
	defer obs.SetEngineSink(obs.SetEngineSink(sink))
	f()
	c := sink.Counters()
	return c["plan_cache_hits_total"] + c["plan_cache_misses_total"]
}

// TestOnePlanLookupPerQuery: a request resolves its plan once — the lookup
// that names the answer-cache slot is the plan it executes on an LRU miss
// (there used to be a second lookup inside Entry.Ask).
func TestOnePlanLookupPerQuery(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	post := func(path string, body map[string]any, wantCached any) func() {
		return func() {
			code, resp := doJSON(t, "POST", ts.URL+"/v1/db/even/"+path, body)
			if code != http.StatusOK || resp["cached"] != wantCached {
				t.Fatalf("%s %v = %d %v, want cached=%v", path, body, code, resp, wantCached)
			}
		}
	}
	for _, tc := range []struct {
		name string
		req  func()
		want int64
	}{
		{"ask, LRU miss", post("ask", map[string]any{"query": "?- Even(4)."}, false), 1},
		{"ask, LRU hit", post("ask", map[string]any{"query": "?- Even(4)."}, true), 1},
		{"ask, respelled LRU hit", post("ask", map[string]any{"query": "?-  Even( 4 )."}, true), 1},
		{"ask via cc, LRU miss", post("ask", map[string]any{"query": "?- Even(4).", "via": "cc"}, false), 1},
		{"ask, parse error", func() { doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even("}) }, 1},
		{"answers, LRU miss", post("answers", map[string]any{"query": "?- Even(T).", "depth": 4}, false), 1},
		{"answers, LRU hit", post("answers", map[string]any{"query": "?- Even(T).", "depth": 4}, true), 1},
		{"batch of 3, one cached", post("batch", map[string]any{"queries": []string{"?- Even(4).", "?- Even(6).", "?- Even(7)."}}, nil), 3},
		{"spec entry, LRU miss", func() {
			if code, resp := doJSON(t, "POST", ts.URL+"/v1/db/evenspec/ask", map[string]any{"query": "?- Even(4)."}); code != http.StatusOK || resp["answer"] != true {
				t.Fatalf("spec entry ask = %d %v, want true", code, resp)
			}
		}, 1},
	} {
		if got := planLookups(t, tc.req); got != tc.want {
			t.Errorf("%s: %d plan lookups, want %d", tc.name, got, tc.want)
		}
	}
}

// TestKeyAndExecutionShareSnapshot: the plan a request keyed its cache slot
// on is the plan it executes, so a /facts bump landing between the two
// cannot make it answer as of a newer snapshot than its key.
func TestKeyAndExecutionShareSnapshot(t *testing.T) {
	_, reg, _ := newTestServer(t, Config{})
	ctx := context.Background()
	old, _ := reg.Get("even")
	snap, err := old.Database().SnapshotContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	q := prepare(ctx, old, nil, "?- Even(3).")
	if q.err != nil || q.plan == nil {
		t.Fatalf("prepare: %v", q.err)
	}
	if _, err := reg.ExtendFacts("even", []byte("Even(3).")); err != nil {
		t.Fatal(err)
	}
	if ok, err := q.ask(ctx); err != nil || ok {
		t.Errorf("ask after the bump = %v, %v; want false, as of the snapshot the key was taken on", ok, err)
	}
	// A batch pins one snapshot: a query it resolves after the bump is
	// still answered as of that snapshot.
	pinned := prepare(ctx, old, snap, "?- Even(5).")
	if ok, err := pinned.ask(ctx); err != nil || ok {
		t.Errorf("pinned batch item saw a later fact: %v, %v", ok, err)
	}
	// The old entry shares the extended database: a request that resolves
	// after the bump sees the new fact, under a plan of the new snapshot.
	fresh := prepare(ctx, old, nil, "?- Even(3).")
	if ok, err := fresh.ask(ctx); err != nil || !ok || fresh.plan == q.plan {
		t.Errorf("ask prepared after the bump = %v, %v (same plan: %v); want true on a new plan", ok, err, fresh.plan == q.plan)
	}
}

// TestTermDepthDoS: the three inputs that used to take the daemon down or
// pin a core — a 2.8 MB nest of 1.39 M applications (fatal stack overflow),
// a five-digit literal (12 s of uncancelable quadratic copying) and a 2^30
// literal — now cost a bounded parse: past the parser's depth cap they are
// 400 parse_error on every endpoint that parses, under it they are
// answered, and the daemon keeps serving.
func TestTermDepthDoS(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	nest := "Even(" + strings.Repeat("f(", 1_390_000) + "0" + strings.Repeat(")", 1_390_000) + ")"
	timed := func(name string, f func() (int, map[string]any)) (int, map[string]any) {
		t.Helper()
		start := time.Now()
		code, body := f()
		if d := time.Since(start); d > 3*time.Second {
			t.Errorf("%s took %v", name, d)
		} else {
			t.Logf("%s: %d in %v", name, code, d)
		}
		return code, body
	}
	for _, tc := range []struct {
		name, method, path string
		body               any
	}{
		{"ask nest", "POST", "/v1/db/even/ask", map[string]any{"query": "?- " + nest + "."}},
		{"ask 70000 via cc", "POST", "/v1/db/even/ask", map[string]any{"query": "?- Even(70000).", "via": "cc"}},
		{"ask T+70000", "POST", "/v1/db/even/ask", map[string]any{"query": "?- Even(T+70000)."}},
		{"answers nest", "POST", "/v1/db/even/answers", map[string]any{"query": "?- " + nest + ", Even(T).", "depth": 2}},
		{"answers 2^30", "POST", "/v1/db/even/answers", map[string]any{"query": "?- Even(T+1073741824).", "depth": 2}},
		{"put nest", "PUT", "/v1/db/deep", "@functional Even/1. " + nest + "."},
		{"put 2^30", "PUT", "/v1/db/deep", "Even(0). Even(T) -> Even(T+2). Even(1073741824)."},
		{"facts nest", "POST", "/v1/db/even/facts", map[string]any{"facts": nest + "."}},
		{"facts 2^30", "POST", "/v1/db/even/facts", map[string]any{"facts": "Even(1073741824)."}},
	} {
		code, body := timed(tc.name, func() (int, map[string]any) { return doJSON(t, tc.method, ts.URL+tc.path, tc.body) })
		if code != http.StatusBadRequest || errCode(body) != "parse_error" || !strings.Contains(errMessage(body), "deeper than") {
			t.Errorf("%s = %d %.200v, want 400 parse_error (depth)", tc.name, code, body)
		}
	}
	// A batch reports them per item and still answers its other queries.
	code, body := timed("batch", func() (int, map[string]any) {
		return postBatch(t, ts.URL, map[string]any{"queries": []string{"?- " + nest + ".", "?- Even(T+1073741824).", "?- Even(4)."}})
	})
	if code != http.StatusOK {
		t.Fatalf("batch = %d %.200v", code, body)
	}
	res := batchResults(t, body)
	for i := 0; i < 2; i++ {
		if env, _ := res[i]["error"].(map[string]any); env["code"] != "parse_error" {
			t.Errorf("batch item %d = %.200v, want a parse_error", i, res[i])
		}
	}
	if res[2]["answer"] != true || res[2]["error"] != nil {
		t.Errorf("batch item 2 = %v, want true", res[2])
	}
	// A ground ask counts its numerals rather than holding them: any time
	// up to parser.MaxTermCount is a query like any other, and one past it
	// is the tree parser's number too large.
	for _, c := range []struct {
		query string
		want  any
	}{
		{"?- Even(40000).", true},
		{"?- Even(70000).", true},
		{"?- Even(1073741825).", false},
		{"?- Even(4611686018427387904).", true},
	} {
		code, body = timed("ask "+c.query, func() (int, map[string]any) {
			return doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": c.query})
		})
		if code != http.StatusOK || body["answer"] != c.want {
			t.Errorf("ask %s = %d %v, want %v", c.query, code, body, c.want)
		}
	}
	code, body = doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(4611686018427387905)."})
	if code != http.StatusBadRequest || errCode(body) != "parse_error" || errMessage(body) != "1:9: number too large" {
		t.Errorf("ask past the count bound = %d %v, want 400 parse_error (number too large)", code, body)
	}
	if code, body := doJSON(t, "GET", ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz after the barrage = %d %v", code, body)
	}
}

// TestTermDepthErrorIsTheTrees: a ground query nested past the depth cap is
// declined by the plan miss's reader and parsed into a tree, so the 400
// parse_error carries the tree parser's error for the text, at its
// line:col. A numeral, +n sugar, or nesting and sugar combined past the cap
// are the reader's, and answered; asked by congruence closure, which builds
// the term, they are the tree parser's error too.
func TestTermDepthErrorIsTheTrees(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	prog := parser.MustParse(evenSrc).Program
	nest := func(n int) string { return strings.Repeat("f(", n) + "0" + strings.Repeat(")", n) }
	for _, c := range []struct {
		q, via string
	}{
		{"?- Even(" + nest(parser.MaxTermDepth+1) + ").", ""},
		{fmt.Sprintf("?- Even(%d).", parser.MaxTermDepth+1), "cc"},
		{fmt.Sprintf("?- Even(2),\n   Even(0+%d).", parser.MaxTermDepth+1), "cc"},
		{"?- Even(4), Even(" + nest(parser.MaxTermDepth-10) + "+11).", "cc"},
	} {
		_, treeErr := parser.ParseQuery(prog, c.q)
		code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": c.q, "via": c.via})
		if treeErr == nil || code != http.StatusBadRequest || errCode(body) != "parse_error" || errMessage(body) != treeErr.Error() {
			t.Errorf("%.40q… via %q = %d %.120v; the tree parser: %v", c.q, c.via, code, body, treeErr)
		}
	}
}
