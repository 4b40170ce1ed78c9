package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestResponseBytesGolden pins the bytes of what ask, answers and batch
// send — success bodies and error envelopes alike — to what json.Encoder
// (HTML escaping off) wrote for them before the ask's 200 was appended by
// hand: the benchmark and repl.RemoteClient decode these bodies. Bodies with
// a trace block carry timings, so those are checked by re-encoding what they
// decode to.
func TestResponseBytesGolden(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	send := func(path, body string) (int, http.Header, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, string(raw)
	}
	for _, tc := range []struct {
		name, path, body string
		status           int
		want             string
	}{
		{"ask miss", "/v1/db/even/ask", `{"query":"?- Even(4)."}`, 200,
			`{"answer":true,"version":1,"cached":false}` + "\n"},
		{"ask hit", "/v1/db/even/ask", `{"query":"?- Even(4)."}`, 200,
			`{"answer":true,"version":1,"cached":true}` + "\n"},
		{"ask false via cc", "/v1/db/even/ask", `{"query":"?- Even(5).","via":"cc"}`, 200,
			`{"answer":false,"version":1,"cached":false}` + "\n"},
		{"ask on a spec entry", "/v1/db/evenspec/ask", `{"query":"Even(4)"}`, 200,
			`{"answer":true,"version":1,"cached":false}` + "\n"},
		{"answers miss", "/v1/db/even/answers", `{"query":"?- Even(T).","depth":4}`, 200,
			`{"tuples":[{"term":"0"},{"term":"2"},{"term":"4"}],"count":3,"truncated":false,"version":1,"cached":false}` + "\n"},
		{"answers hit", "/v1/db/even/answers", `{"query":"?- Even(T).","depth":4}`, 200,
			`{"tuples":[{"term":"0"},{"term":"2"},{"term":"4"}],"count":3,"truncated":false,"version":1,"cached":true}` + "\n"},
		{"answers truncated", "/v1/db/even/answers", `{"query":"?- Even(T).","depth":4,"limit":1}`, 200,
			`{"tuples":[{"term":"0"}],"count":1,"truncated":true,"version":1,"cached":false}` + "\n"},
		{"answers empty", "/v1/db/even/answers", `{"query":"?- Even(1)."}`, 200,
			`{"tuples":[],"count":0,"truncated":false,"version":1,"cached":false}` + "\n"},
		{"batch with an inline error", "/v1/db/even/batch", `{"queries":["?- Even(4).","?- Even(3).","?- <b>&"]}`, 200,
			`{"results":[{"query":"?- Even(4).","answer":true},{"query":"?- Even(3).","answer":false},` +
				`{"query":"?- <b>&","answer":false,"error":{"code":"parse_error","message":"1:4: unexpected '<'"}}],"version":1}` + "\n"},
		{"missing query", "/v1/db/even/ask", `{}`, 400,
			`{"error":{"code":"bad_request","message":"missing query"}}` + "\n"},
		{"unknown database", "/v1/db/nope/answers", `{"query":"?- Even(T)."}`, 404,
			`{"error":{"code":"not_found","message":"no database named \"nope\""}}` + "\n"},
		{"parse error", "/v1/db/even/ask", `{"query":"?- Even("}`, 400,
			`{"error":{"code":"parse_error","message":"1:9: expected a term, found end of input"}}` + "\n"},
		{"missing queries", "/v1/db/even/batch", `{"queries":[]}`, 400,
			`{"error":{"code":"bad_request","message":"missing queries"}}` + "\n"},
		{"unknown via", "/v1/db/even/ask", `{"query":"?- Even(4).","via":"<magic>"}`, 400,
			`{"error":{"code":"bad_request","message":"unknown via \"<magic>\" (want \"\" or \"cc\")"}}` + "\n"},
	} {
		status, header, got := send(tc.path, tc.body)
		if status != tc.status || got != tc.want {
			t.Errorf("%s: %d %q\nwant %d %q", tc.name, status, got, tc.status, tc.want)
		}
		if ct := header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
		if header.Get("X-Request-Id") == "" || header.Get("X-Trace-Id") == "" {
			t.Errorf("%s: missing X-Request-Id or X-Trace-Id: %v", tc.name, header)
		}
	}

	// Traced bodies: json.Encoder's rendering of whatever they decode to.
	for _, tc := range []struct {
		path, body string
		into       any
	}{
		{"/v1/db/even/ask", `{"query":"?- Even(6).","trace":true}`, &askResponse{}},
		{"/v1/db/even/answers", `{"query":"?- Even(T).","depth":2,"trace":true}`, &answersResponse{}},
		{"/v1/db/even/batch", `{"queries":["?- Even(8)."],"trace":true}`, &batchResponse{}},
	} {
		status, _, got := send(tc.path, tc.body)
		if status != 200 || !strings.Contains(got, `"trace":{"id":"`) {
			t.Fatalf("traced %s: %d %s", tc.path, status, got)
		}
		if err := json.Unmarshal([]byte(got), tc.into); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(tc.into); err != nil {
			t.Fatal(err)
		}
		if buf.String() != got {
			t.Errorf("traced %s:\n got %q\nwant %q", tc.path, got, buf.String())
		}
	}
}
