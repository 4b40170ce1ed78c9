package shard

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouterOriginGolden pins every response the router originates itself —
// its own error envelopes, the per-item errors of a cross-database batch and
// the partial-failure envelope — byte for byte, status and Retry-After
// included. The bodies were recorded before the router's private envelope
// writer was replaced by the shared one (internal/api) and pass unmodified on
// both sides of that change; backend addresses are rewritten to the group's
// role so transport errors compare.
func TestRouterOriginGolden(t *testing.T) {
	// ok is a healthy shard; items answers per-db batches by database name:
	// an inline error, too few results, not JSON, or a well-formed 404.
	ok := newFakeShard(t, "a-primary", "alpha")
	items := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.URL.Path == "/readyz":
		case strings.HasSuffix(r.URL.Path, "/short/batch"):
			io.WriteString(w, `{"results":[],"version":1}`+"\n")
		case strings.HasSuffix(r.URL.Path, "/garbled/batch"):
			io.WriteString(w, `not json`)
		case strings.HasSuffix(r.URL.Path, "/missing/batch"):
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, `{"error":{"code":"not_found","message":"no database named \"missing\""}}`+"\n")
		default:
			io.WriteString(w, `{"results":[{"query":"q1","answer":true},`+
				`{"query":"?- <b>&","answer":false,"error":{"code":"parse_error","message":"1:4: unexpected '<'"}}],"version":1}`+"\n")
		}
	}))
	t.Cleanup(items.Close)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	dead.Close()

	live := &Map{Version: 7, Groups: []Group{
		{Name: "ga", Primary: ok.srv.URL},
		{Name: "gd", Primary: dead.URL},
		{Name: "gi", Primary: items.URL},
	}, Overrides: map[string]string{"alpha": "ga", "gone": "gd", "frozen": "ga",
		"mixed": "gi", "short": "gi", "garbled": "gi", "missing": "gi"},
		Frozen: []string{"frozen"}}
	_, withMap, _ := routerOver(t, live)
	_, noMap, _ := routerOver(t, nil)
	scrub := strings.NewReplacer(
		strings.TrimPrefix(ok.srv.URL, "http://"), "GA",
		strings.TrimPrefix(dead.URL, "http://"), "GD",
		strings.TrimPrefix(items.URL, "http://"), "GI")

	env := func(code, msg string) string {
		return `{"error":{"code":"` + code + `","message":"` + msg + `"}}` + "\n"
	}
	refused := `dial tcp GD: connect: connection refused`
	for _, tc := range []struct {
		name         string
		srv          *httptest.Server
		method, path string
		body         string
		status       int
		retryAfter   string
		want         string
	}{
		{"readyz, no map", noMap, "GET", "/readyz", "", 503, "1",
			env("no_shardmap", "no shard map installed yet")},
		{"shardmap, no map", noMap, "GET", "/v1/shardmap", "", 404, "",
			env("no_shardmap", "no shard map installed yet")},
		{"read, no map", noMap, "GET", "/v1/db/alpha", "", 503, "1",
			env("no_shardmap", "router has no shard map yet")},
		{"write, no map", noMap, "PUT", "/v1/db/alpha", "Even(0).", 503, "1",
			env("no_shardmap", "router has no shard map yet")},
		{"watch, no map", noMap, "POST", "/v1/db/alpha/watch", "{}", 503, "1",
			env("no_shardmap", "router has no shard map yet")},
		{"dbs, no map", noMap, "GET", "/v1/dbs", "", 503, "1",
			env("no_shardmap", "router has no shard map yet")},
		{"cross-batch, no map", noMap, "POST", "/v1/batch", `{"queries":[]}`, 503, "1",
			env("no_shardmap", "router has no shard map yet")},
		{"frozen write", withMap, "POST", "/v1/db/frozen/facts", `{"facts":"Even(2)."}`, 409, "1",
			env("resharding", `database \"frozen\" is being resharded; retry shortly`)},
		{"primary unreachable", withMap, "PUT", "/v1/db/gone", "Even(0).", 502, "1",
			env("primary_unreachable", `group gd primary: Put \"http://GD/v1/db/gone\": `+refused)},
		{"no healthy endpoints", withMap, "POST", "/v1/db/gone/ask", `{"query":"?- Even(4)."}`, 503, "1",
			env("no_healthy_endpoints", `group gd: Post \"http://GD/v1/db/gone/ask\": `+refused)},
		{"watch, no healthy endpoints", withMap, "POST", "/v1/db/gone/watch", `{}`, 503, "1",
			env("no_healthy_endpoints", `group gd: Post \"http://GD/v1/db/gone/watch\": `+refused)},
		{"cross-batch, malformed body", withMap, "POST", "/v1/batch", `{"queries":`, 400, "",
			env("bad_request", "invalid request body: unexpected EOF")},
		{"cross-batch, unknown member", withMap, "POST", "/v1/batch", `{"querys":[]}`, 400, "",
			env("bad_request", `invalid request body: json: unknown field \"querys\"`)},
		{"cross-batch, no queries", withMap, "POST", "/v1/batch", `{"queries":[]}`, 400, "",
			env("bad_request", "missing queries")},
		{"traces, bad n", withMap, "GET", "/debug/traces?n=zero", "", 400, "",
			env("bad_request", `invalid n \"zero\"`)},
		{"trace, not recorded anywhere", withMap, "GET", "/debug/traces/feedfacefeedfacefeedfacefeedface", "", 404, "",
			env("not_found", `no recorded trace \"feedfacefeedfacefeedfacefeedface\"`)},
		{"shardmap, not a map", withMap, "PUT", "/v1/shardmap", `{"version":`, 400, "",
			env("bad_shardmap", "shard: parse map: unexpected EOF")},
		{"shardmap, stale", withMap, "PUT", "/v1/shardmap",
			`{"format":"funcdb-shardmap/v1","version":3,"groups":[{"name":"ga","primary":"http://127.0.0.1:1"}]}`, 409, "1",
			env("stale_shardmap", "shard: map v3 is not newer than live v7")},

		{"cross-batch, per-item errors", withMap, "POST", "/v1/batch",
			`{"queries":[{"db":"mixed","query":"q1"},{"db":"","query":"nowhere"},{"db":"mixed","query":"?- <b>&"},` +
				`{"db":"short","query":"q"},{"db":"garbled","query":"q"}]}`, 200, "",
			`{"results":[{"db":"mixed","query":"q1","answer":true},` +
				`{"db":"","query":"nowhere","error":{"code":"bad_request","message":"missing db"}},` +
				`{"db":"mixed","query":"?- <b>&","error":{"code":"parse_error","message":"1:4: unexpected '<'"}},` +
				`{"db":"short","query":"q","error":{"code":"bad_upstream","message":"malformed shard response"}},` +
				`{"db":"garbled","query":"q","error":{"code":"bad_upstream","message":"malformed shard response"}}],` +
				`"shardmap_version":7}` + "\n"},
		{"cross-batch, partial failure", withMap, "POST", "/v1/batch",
			`{"queries":[{"db":"alpha","query":"serves a-primary?"},{"db":"gone","query":"q"}]}`, 200, "",
			`{"failed":[{"group":"gd","error":"Post \"http://GD/v1/db/gone/batch\": ` + refused + `"}],"partial":true,` +
				`"results":[{"db":"alpha","query":"serves a-primary?","answer":true},` +
				`{"db":"gone","query":"q","error":{"code":"shard_unavailable","message":"Post \"http://GD/v1/db/gone/batch\": ` + refused + `"}}],` +
				`"shardmap_version":7}` + "\n"},
		{"cross-batch, shard refuses", withMap, "POST", "/v1/batch",
			`{"queries":[{"db":"missing","query":"q"}]}`, 200, "",
			`{"failed":[{"group":"gi","error":"not_found: no database named \"missing\""}],"partial":true,` +
				`"results":[{"db":"missing","query":"q","error":{"code":"shard_unavailable","message":"not_found: no database named \"missing\""}}],` +
				`"shardmap_version":7}` + "\n"},
		{"dbs, partial failure", withMap, "GET", "/v1/dbs", "", 200, "",
			`{"databases":[{"name":"alpha"}],"failed":[{"group":"gd","error":"Get \"http://GD/v1/dbs\": ` + refused + `"}],` +
				`"partial":true,"shardmap_version":7}` + "\n"},
	} {
		req, err := http.NewRequest(tc.method, tc.srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got := scrub.Replace(string(raw))
		if resp.StatusCode != tc.status || got != tc.want {
			t.Errorf("%s: %d %q\nwant %d %q", tc.name, resp.StatusCode, got, tc.status, tc.want)
		}
		if ra := resp.Header.Get("Retry-After"); ra != tc.retryAfter {
			t.Errorf("%s: Retry-After %q, want %q", tc.name, ra, tc.retryAfter)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
	}

	// A declared body over the proxy limit is refused before it is read, so
	// the request is written by hand: headers only.
	conn, err := net.Dial("tcp", strings.TrimPrefix(withMap.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/db/alpha/ask HTTP/1.1\r\nHost: router\r\nContent-Length: %d\r\n\r\n", maxProxyBody+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	if want := env("body_too_large", "request body exceeds 16777216 bytes"); resp.StatusCode != 413 || string(raw) != want {
		t.Errorf("oversized body: %d %q\nwant 413 %q", resp.StatusCode, raw, want)
	}
}
