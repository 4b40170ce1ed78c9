package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"funcdb/internal/datagen"
	"funcdb/internal/leakcheck"
)

// TestQueryDeadlineIs504: a query that outlives Config.Timeout is answered
// 504 deadline_exceeded wherever the time went — held before evaluation by
// the test hook, or inside an enumeration that takes minutes unbounded (the
// 6^12 lists over six elements nearly all contain e1, and the tuple cap is
// raised out of the way).
func TestQueryDeadlineIs504(t *testing.T) {
	s := newBareServer(t, Config{Timeout: 30 * time.Millisecond, MaxTuples: 1 << 40}, "sub", datagen.SubsetsSrc(6))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Compile outside any request: the first reader of a database pays its
	// compile, and that is not what this test times.
	if code, body := doJSON(t, "POST", ts.URL+"/v1/db/sub/ask", `{"query":"?- Member(ext(0, e0), e0)."}`); code != 200 {
		t.Fatalf("warm-up ask: %d %v", code, body)
	}
	check := func(where, path, body string) {
		t.Helper()
		start := time.Now()
		code, got := doJSON(t, "POST", ts.URL+path, body)
		if code != http.StatusGatewayTimeout || errCode(got) != "deadline_exceeded" {
			t.Errorf("%s: %d %v after %v, want 504 deadline_exceeded", where, code, got, time.Since(start))
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: the 30ms deadline was noticed after %v", where, took)
		}
	}
	check("in evaluation (answers)", "/v1/db/sub/answers", `{"query":"?- Member(S, e1).","depth":12}`)

	s.slow = func(ctx context.Context) { <-ctx.Done() }
	check("in the hook (ask)", "/v1/db/sub/ask", `{"query":"?- Member(ext(0, e1), e1)."}`)
}

// TestSparseAnswerAtDepth24: one request for the plans that end at p3 within
// 24 moves on the eight-position ring — a few dozen of the 64^24 terms of
// that depth — is answered from the handful of live paths: in milliseconds
// and a few hundred kilobytes. (Materialising the term tree level by level,
// this did not finish: level 4 alone is 16 million terms.)
func TestSparseAnswerAtDepth24(t *testing.T) {
	s := newBareServer(t, Config{}, "rob", datagen.RobotSrc(8))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Pay the compile and the answer specification outside the timed request.
	if code, body := doJSON(t, "POST", ts.URL+"/v1/db/rob/answers", `{"query":"?- At(S, p3).","depth":1}`); code != 200 {
		t.Fatalf("warm-up: %d %v", code, body)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/rob/answers", `{"query":"?- At(S, p3).","depth":24}`)
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	if code != 200 {
		t.Fatalf("depth 24: %d %v", code, body)
	}
	// Paths from p0 to p3: three moves round the ring, after any number of
	// laps of 8 moves or 5 (by the chord p0 -> p4) that fit under 24.
	want := 0
	for laps8 := 0; laps8 <= 3; laps8++ {
		for laps5 := 0; 8*laps8+5*laps5+3 <= 24; laps5++ {
			want += binomial(laps8+laps5, laps5)
		}
	}
	if n, _ := body["count"].(float64); int(n) != want || body["truncated"] != false {
		t.Errorf("depth 24: %v tuples (truncated %v), want %d", body["count"], body["truncated"], want)
	}
	if took > 100*time.Millisecond {
		t.Errorf("depth 24 took %v, want under 100ms", took)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 4<<20 {
		t.Errorf("depth 24 allocated %d bytes, want under 4 MB", alloc)
	}
}

func binomial(n, k int) int {
	r := 1
	for i := 1; i <= k; i++ {
		r = r * (n - k + i) / i
	}
	return r
}

// TestStalledBodyIsCutOffAtTheDeadline: a client that sends its headers and
// half its body and then nothing is answered 504 at the deadline, the
// connection is closed, and no goroutine is left behind waiting for the rest.
func TestStalledBodyIsCutOffAtTheDeadline(t *testing.T) {
	s := newBareServer(t, Config{Timeout: 100 * time.Millisecond}, "even", evenSrc)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	baseline := runtime.NumGoroutine()

	for _, path := range []string{"/v1/db/even/ask", "/v1/db/even/answers", "/v1/db/even/batch"} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		body := `{"query":"?- Even(4)."}`
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", path, len(body), body[:len(body)/2])
		start := time.Now()
		conn.SetReadDeadline(start.Add(5 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: no response to a stalled body: %v", path, err)
		}
		raw, _ := io.ReadAll(resp.Body) // to EOF: the server closes the connection
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(raw), `"deadline_exceeded"`) {
			t.Errorf("%s: %d %s, want 504 deadline_exceeded", path, resp.StatusCode, raw)
		}
		if took := time.Since(start); took < 50*time.Millisecond || took > 2*time.Second {
			t.Errorf("%s: cut off after %v, want about the 100ms deadline", path, took)
		}
	}
	// The connections' goroutines are the handlers': all gone once served.
	leakcheck.Settled(t, baseline)
}

// TestUploadDeadlineIsTheWrappers503: PUT and facts parse and compile, which
// does not poll a context, so those endpoints stay under http.TimeoutHandler
// and keep its answer when the deadline passes: 503 with the standard
// envelope.
func TestUploadDeadlineIsTheWrappers503(t *testing.T) {
	s := newBareServer(t, Config{Timeout: 2 * time.Millisecond}, "even", evenSrc)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var big strings.Builder // a megabyte of facts: tens of milliseconds to parse
	for i := 0; big.Len() < 1<<20; i++ {
		fmt.Fprintf(&big, "Seen(c%d). ", i)
	}
	for _, tc := range []struct{ name, method, path, body string }{
		{"PUT", "PUT", "/v1/db/big", big.String()},
		{"facts", "POST", "/v1/db/even/facts", `{"facts":"` + big.String() + `"}`},
	} {
		code, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		if code != http.StatusServiceUnavailable || errCode(body) != "deadline_exceeded" || errMessage(body) != "request timed out" {
			t.Errorf("%s past the deadline: %d %v, want the wrapper's 503 deadline_exceeded", tc.name, code, body)
		}
	}
}
