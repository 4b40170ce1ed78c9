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
	"sync/atomic"
	"testing"
	"time"

	"funcdb/internal/admission"
	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/leakcheck"
	"funcdb/internal/registry"
	"funcdb/internal/watch"
	"funcdb/internal/wire"
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
// connection is closed, and no goroutine is left behind waiting for the rest
// — a query, an upload or facts alike.
func TestStalledBodyIsCutOffAtTheDeadline(t *testing.T) {
	s := newBareServer(t, Config{Timeout: 100 * time.Millisecond}, "even", evenSrc)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	baseline := runtime.NumGoroutine()

	query := `{"query":"?- Even(4)."}`
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/v1/db/even/ask", query},
		{"POST", "/v1/db/even/answers", query},
		{"POST", "/v1/db/even/batch", query},
		{"PUT", "/v1/db/odd", "Odd(1). Odd(T) -> Odd(T+2)."},
		{"POST", "/v1/db/even/facts", `{"facts":"Even(7)."}`},
	} {
		path, body := tc.path, tc.body
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", tc.method, path, len(body), body[:len(body)/2])
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

// TestTimedOutWriteIsNotPublished: an upload and a batch of facts, a
// megabyte each, cannot be parsed and compiled within a 2ms deadline, and a
// write that misses its deadline is refused at its commit point: both are
// answered 504, and neither is published — no new entry, no new version, no
// journal record and no version bump for watchers.
func TestTimedOutWriteIsNotPublished(t *testing.T) {
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	var journaled, bumped atomic.Int32
	reg.SetObserver(func(wire.Mutation) error { journaled.Add(1); return nil })
	hub := watch.NewHub(watch.Options{Reg: reg})
	defer hub.Close()
	reg.SetNotifier(func(name string, v uint64) { bumped.Add(1); hub.Notify(name, v) })
	ts := httptest.NewServer(New(reg, Config{Timeout: 2 * time.Millisecond, Watch: hub}).Handler())
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
		if code != http.StatusGatewayTimeout || errCode(body) != "deadline_exceeded" {
			t.Errorf("%s past the deadline: %d %v, want 504 deadline_exceeded", tc.name, code, body)
		}
	}
	ts.Close() // waits for every handler, answered or not, to return
	if _, ok := reg.Get("big"); ok {
		t.Error("the upload that missed its deadline was published")
	}
	if e, _ := reg.Get("even"); e.Version != 1 {
		t.Errorf("the facts that missed their deadline were published: even is at version %d", e.Version)
	}
	if n, m := journaled.Load(), bumped.Load(); n != 0 || m != 0 {
		t.Errorf("%d journal records and %d version bumps for writes refused at their deadline", n, m)
	}
}

// TestCompileMeetsItsDeadline: the first read of a fresh entry pays for its
// compile — for Member over sixteen elements, Algorithm Q's 2^16 clusters
// (Theorem 4.2), seconds of work — and the read's deadline and budgets reach
// it. An ask and GET /v1/db/{name} are answered 504 at their 50ms deadline,
// and the compiles they started let go of the database when they are, so
// the next reader is not stuck behind an orphan. A tenant's Algorithm Q step
// budget bounds the same compile, for whichever tenant pays for it.
func TestCompileMeetsItsDeadline(t *testing.T) {
	reg := registry.New(core.Options{})
	sub, err := reg.PutProgram("sub", []byte(datagen.SubsetsSrc(16)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Config{Timeout: 50 * time.Millisecond}).Handler())
	defer ts.Close()
	baseline := runtime.NumGoroutine()
	for _, tc := range []struct{ what, method, path, body string }{
		{"the first ask", "POST", "/v1/db/sub/ask", `{"query":"?- Member(ext(0, e0), e0)."}`},
		{"GET /v1/db/sub", "GET", "/v1/db/sub", ""},
		{"the ask that follows", "POST", "/v1/db/sub/ask", `{"query":"?- Member(ext(0, e1), e1)."}`},
	} {
		start := time.Now()
		code, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		took := time.Since(start)
		t.Logf("%s: %d after %v", tc.what, code, took)
		if code != http.StatusGatewayTimeout || errCode(body) != "deadline_exceeded" {
			t.Errorf("%s: %d %v, want 504 deadline_exceeded", tc.what, code, body)
		}
		if took > 250*time.Millisecond {
			t.Errorf("%s: answered after %v, want about the 50ms deadline", tc.what, took)
		}
		// The compile ended with the request: the database's lock is free.
		start = time.Now()
		sub.Database().SourceText()
		if wait := time.Since(start); wait > 50*time.Millisecond {
			t.Errorf("after %s, the database was held for another %v", tc.what, wait)
		}
	}
	ts.Close()
	leakcheck.Settled(t, baseline)

	ctl := admission.New(admission.Options{
		Concurrency: 8,
		Config:      admission.Config{Tenants: map[string]admission.Limits{"tiny": {MaxQSteps: 3}}},
	})
	_, reg2, ts2 := newTestServer(t, Config{Admission: ctl})
	if _, err := reg2.PutProgram("meetings", []byte(cycleSrc)); err != nil {
		t.Fatal(err)
	}
	ask := `{"query":"?- Meets(3, p3)."}`
	if st, _, body := doJSONAs(t, "POST", ts2.URL+"/v1/db/meetings/ask", "tiny", ask); st != http.StatusUnprocessableEntity || errCode(body) != "budget_exceeded" {
		t.Errorf("the first ask of a fresh entry by a tenant with 3 Algorithm Q steps: %d %v, want 422 budget_exceeded", st, body)
	}
	if st, _, body := doJSONAs(t, "POST", ts2.URL+"/v1/db/meetings/ask", "big", ask); st != http.StatusOK || body["answer"] != true {
		t.Errorf("the same ask by a tenant with no limit: %d %v, want 200 true", st, body)
	}
}

// TestLongCompileFinishesAcrossReads: a compile longer than the deadline —
// Member over fourteen elements, hundreds of milliseconds — is not started
// over by every read. Each read killed at its 20ms deadline leaves its part
// of Algorithm Q done, so the reads that keep coming finish the compile in
// about as many deadlines as it lasts uninterrupted, and are answered 200
// from then on.
func TestLongCompileFinishesAcrossReads(t *testing.T) {
	const deadline = 20 * time.Millisecond
	src := datagen.SubsetsSrc(14)
	start := time.Now()
	if db, err := core.Open(src, core.Options{}); err != nil {
		t.Fatal(err)
	} else if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	whole := time.Since(start)
	s := newBareServer(t, Config{Timeout: deadline}, "sub", src)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ask := `{"query":"?- Member(ext(0, e0), e0)."}`
	// Four times the deadlines the whole compile spans, and then some: a
	// compile that every read starts over takes ten times more.
	limit := 4*int(whole/deadline) + 10
	var timedOut int
	for code := 0; code != http.StatusOK; {
		var body map[string]any
		code, body = doJSON(t, "POST", ts.URL+"/v1/db/sub/ask", ask)
		switch {
		case code == http.StatusGatewayTimeout && errCode(body) == "deadline_exceeded":
			if timedOut++; timedOut > limit {
				t.Fatalf("%d reads at a %v deadline did not finish a compile that takes %v", timedOut, deadline, whole)
			}
		case code != http.StatusOK || body["answer"] != true:
			t.Fatalf("ask after %d timed-out reads: %d %v", timedOut, code, body)
		}
	}
	t.Logf("a %v compile finished after %d reads answered 504", whole, timedOut)
	if timedOut == 0 {
		t.Errorf("the first read finished the compile within %v: the test no longer times a long compile", deadline)
	}
	if code, body := doJSON(t, "GET", ts.URL+"/v1/db/sub", ""); code != http.StatusOK {
		t.Errorf("GET /v1/db/sub after the compile: %d %v", code, body)
	}
}
