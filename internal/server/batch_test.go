package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"funcdb/internal/api"
)

func postBatch(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	return doJSON(t, "POST", url+"/v1/db/even/batch", body)
}

func batchResults(t *testing.T, body map[string]any) []map[string]any {
	t.Helper()
	raw, ok := body["results"].([]any)
	if !ok {
		t.Fatalf("no results in %v", body)
	}
	out := make([]map[string]any, len(raw))
	for i, r := range raw {
		out[i] = r.(map[string]any)
	}
	return out
}

func TestBatchEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	code, body := postBatch(t, ts.URL, map[string]any{
		"queries": []string{
			"?- Even(4).",
			"?- Even(3).",
			"?- Even(", // parse error: inline, not fatal
			"?- Even(100).",
		},
	})
	if code != http.StatusOK {
		t.Fatalf("batch = %d %v, want 200", code, body)
	}
	res := batchResults(t, body)
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4", len(res))
	}
	wantAnswer := []any{true, false, nil, true}
	for i, r := range res {
		if i == 2 {
			env, ok := r["error"].(map[string]any)
			if !ok || env["code"] != "parse_error" {
				t.Errorf("result 2 error = %v, want parse_error envelope", r["error"])
			}
			continue
		}
		if r["error"] != nil {
			t.Errorf("result %d unexpected error: %v", i, r["error"])
		}
		if r["answer"] != wantAnswer[i] {
			t.Errorf("result %d answer = %v, want %v", i, r["answer"], wantAnswer[i])
		}
	}
}

// TestBatchSharesAskCache: verdicts computed by /batch serve later /ask
// requests from the cache, and vice versa — one key space per version.
func TestBatchSharesAskCache(t *testing.T) {
	srv, _, ts := newTestServer(t, Config{})
	if code, body := postBatch(t, ts.URL, map[string]any{"queries": []string{"?- Even(42)."}}); code != 200 {
		t.Fatalf("batch = %d %v", code, body)
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": "?- Even(42)."})
	if code != 200 || body["cached"] != true || body["answer"] != true {
		t.Fatalf("ask after batch = %d %v, want cached true", code, body)
	}
	if srv.cache.len() == 0 {
		t.Fatal("cache empty after batch")
	}
}

func TestBatchValidation(t *testing.T) {
	_, _, ts := newTestServer(t, Config{MaxBatchQueries: 2})
	if code, body := postBatch(t, ts.URL, map[string]any{"queries": []string{}}); code != 400 {
		t.Fatalf("empty batch = %d %v, want 400", code, body)
	}
	code, body := postBatch(t, ts.URL, map[string]any{"queries": []string{"a", "b", "c"}})
	if code != 400 || !strings.Contains(errMessage(body), "exceeds limit") {
		t.Fatalf("oversized batch = %d %v, want 400 exceeds limit", code, body)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/nosuch/batch",
		map[string]any{"queries": []string{"?- Even(0)."}}); code != 404 {
		t.Fatalf("batch on missing db = %d, want 404", code)
	}
	// Blank entries are reported inline without evaluating anything.
	code, body = postBatch(t, ts.URL, map[string]any{"queries": []string{"  ", "?- Even(0)."}})
	if code != 200 {
		t.Fatalf("batch with blank entry = %d %v", code, body)
	}
	res := batchResults(t, body)
	if env, ok := res[0]["error"].(map[string]any); !ok || env["code"] != "bad_request" {
		t.Errorf("blank entry error = %v, want bad_request", res[0]["error"])
	}
	if res[1]["answer"] != true {
		t.Errorf("second entry = %v, want true", res[1])
	}
}

// TestErrorEnvelopeCodes pins the machine-readable code for each error
// class of the unified envelope.
func TestErrorEnvelopeCodes(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		path string
		body any
		code int
		want string
	}{
		{"unknown db", "/v1/db/nosuch/ask", map[string]any{"query": "?- Even(0)."}, 404, "not_found"},
		{"parse error", "/v1/db/even/ask", map[string]any{"query": "?- Even("}, 400, "parse_error"},
		{"bad body", "/v1/db/even/ask", `{"quer`, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := doJSON(t, "POST", ts.URL+tc.path, tc.body)
			if code != tc.code || errCode(body) != tc.want {
				t.Fatalf("%s = %d %v, want %d code %q", tc.path, code, body, tc.code, tc.want)
			}
		})
	}
}

// TestCanceledRequestIs499: a request whose context is already canceled
// when evaluation starts maps to the nonstandard 499 with code "canceled".
func TestCanceledRequestIs499(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{Timeout: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	raw, _ := json.Marshal(map[string]any{"query": "?- Even(4)."})
	req := httptest.NewRequest("POST", "/v1/db/even/ask", strings.NewReader(string(raw))).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != api.StatusClientClosedRequest {
		t.Fatalf("canceled request = %d %s, want 499", rec.Code, rec.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if errCode(body) != "canceled" {
		t.Fatalf("canceled body = %v, want code canceled", body)
	}
}
