package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/leakcheck"
)

// TestRouterStalledBodyIsCutOff: a client that declares a body and stalls
// partway through it is answered 504 deadline_exceeded once the shard
// timeout has passed — on a proxied read, a proxied write, the router's
// own cross-db batch and a shard-map install — and nothing is left running
// once the router is closed. The shard is never reached, so it need not exist.
func TestRouterStalledBodyIsCutOff(t *testing.T) {
	const timeout, slack = 300 * time.Millisecond, time.Second
	baseline := runtime.NumGoroutine()
	func() {
		src := NewSource(&Map{Version: 1, Groups: []Group{{Name: "g", Primary: "http://127.0.0.1:1"}}})
		defer src.Close()
		rt := NewRouter(src, Options{ShardTimeout: timeout, TraceBuffer: -1, Logger: quiet})
		defer rt.Close()
		rts := httptest.NewServer(rt)
		defer rts.Close()
		for _, row := range []struct{ method, path string }{
			{"POST", "/v1/db/alpha/ask"},
			{"POST", "/v1/db/alpha/facts"},
			{"POST", "/v1/batch"},
			{"PUT", "/v1/shardmap"},
		} {
			path := row.path
			conn, err := net.Dial("tcp", rts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			// 9 of the 100 bytes declared.
			fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: router\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"query\":", row.method, path)
			conn.SetReadDeadline(start.Add(timeout + slack))
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			took := time.Since(start)
			if err != nil {
				conn.Close()
				t.Fatalf("%s: no answer %v into the stall: %v", path, took, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			conn.Close()
			var env struct {
				Error api.ErrorBody `json:"error"`
			}
			json.Unmarshal(raw, &env)
			if resp.StatusCode != http.StatusGatewayTimeout || env.Error.Code != "deadline_exceeded" {
				t.Errorf("%s: stalled body answered %d %s, want 504 deadline_exceeded", path, resp.StatusCode, raw)
			}
			if took < timeout {
				t.Errorf("%s: answered after %v, before the shard timeout %v", path, took, timeout)
			}
		}
	}()
	leakcheck.Settled(t, baseline)
}
