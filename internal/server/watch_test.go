package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/query"
	"funcdb/internal/registry"
	"funcdb/internal/watch"
)

// openWatch posts a watch subscription and returns the streaming response
// with a frame decoder. The request carries a 30s context so a stuck
// stream fails the test instead of hanging it.
func openWatch(t *testing.T, ts *httptest.Server, db string, body map[string]any) (*http.Response, *json.Decoder) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/db/"+db+"/watch", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		t.Fatalf("watch open: status %d: %v", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	return resp, json.NewDecoder(resp.Body)
}

// nextDataFrame decodes frames until one that is not a heartbeat.
func nextDataFrame(t *testing.T, dec *json.Decoder) watch.Frame {
	t.Helper()
	for {
		var f watch.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("decode frame: %v", err)
		}
		if f.Type != watch.FrameHeartbeat {
			return f
		}
	}
}

func tupleSet(tuples []query.Tuple) map[string]bool {
	set := make(map[string]bool, len(tuples))
	for _, tu := range tuples {
		set[tu.String()] = true
	}
	return set
}

// TestWatchUniformDelta checks the core live-query contract over HTTP: the
// init frame carries the full answer set, one extend produces exactly one
// delta, and init+delta equals what a fresh /answers re-ask reports.
func TestWatchUniformDelta(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	if _, err := reg.PutProgram("seen", []byte("Seen(a).")); err != nil {
		t.Fatal(err)
	}
	_, dec := openWatch(t, ts, "seen", map[string]any{"query": "?- Seen(X)."})
	init := nextDataFrame(t, dec)
	if init.Type != watch.FrameInit || init.Truncated {
		t.Fatalf("first frame = %+v, want complete init", init)
	}
	state := tupleSet(init.Add)
	if len(state) != 1 || !state["(a)"] {
		t.Fatalf("init set = %v, want {(a)}", state)
	}

	if _, err := reg.ExtendFacts("seen", []byte("Seen(b).")); err != nil {
		t.Fatal(err)
	}
	delta := nextDataFrame(t, dec)
	if delta.Type != watch.FrameDelta {
		t.Fatalf("frame after extend = %+v, want delta", delta)
	}
	for _, tu := range delta.Add {
		state[tu.String()] = true
	}
	for _, tu := range delta.Del {
		delete(state, tu.String())
	}

	// The stream's accumulated state must equal a full re-ask.
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/seen/answers", map[string]any{"query": "?- Seen(X)."})
	if code != http.StatusOK {
		t.Fatalf("/answers status %d: %v", code, body)
	}
	var reask []string
	for _, raw := range body["tuples"].([]any) {
		tu := raw.(map[string]any)
		var args []string
		for _, a := range tu["args"].([]any) {
			args = append(args, a.(string))
		}
		reask = append(reask, query.Tuple{Args: args}.String())
	}
	var got []string
	for s := range state {
		got = append(got, s)
	}
	sort.Strings(got)
	sort.Strings(reask)
	if len(got) != len(reask) {
		t.Fatalf("watch state %v != re-ask %v", got, reask)
	}
	for i := range got {
		if got[i] != reask[i] {
			t.Fatalf("watch state %v != re-ask %v", got, reask)
		}
	}
	if uint64(body["version"].(float64)) != delta.Version {
		t.Fatalf("delta version %d != re-ask version %v", delta.Version, body["version"])
	}
}

// TestWatchSpecEntryDelta: a uniform query watched on a spec entry gets its
// init from the document alone, and a re-PUT of another document delivers
// its delta exactly once — a re-PUT that leaves the answer as it was
// delivers nothing, so the next frame is the next change's.
func TestWatchSpecEntryDelta(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	put := func(step int) {
		t.Helper()
		doc := exportDoc(t, fmt.Sprintf("Even(0).\nEven(T) -> Even(T+%d).\n", step))
		if code, body := doJSON(t, "PUT", ts.URL+"/v1/db/evenspec", doc); code != http.StatusOK {
			t.Fatalf("re-PUT: %d %v", code, body)
		}
	}
	terms := func(ts ...string) map[string]bool {
		set := make(map[string]bool)
		for _, tm := range ts {
			set[query.Tuple{Term: tm}.String()] = true
		}
		return set
	}
	_, dec := openWatch(t, ts, "evenspec", map[string]any{"query": "?- Even(T).", "depth": 6})
	init := nextDataFrame(t, dec)
	if init.Type != watch.FrameInit || !reflect.DeepEqual(tupleSet(init.Add), terms("0", "2", "4", "6")) {
		t.Fatalf("init = %+v, want 0 2 4 6", init)
	}
	put(3)
	d := nextDataFrame(t, dec)
	if d.Type != watch.FrameDelta || d.Version != 2 ||
		!reflect.DeepEqual(tupleSet(d.Add), terms("3")) || !reflect.DeepEqual(tupleSet(d.Del), terms("2", "4")) {
		t.Fatalf("frame after the first re-PUT = %+v, want delta +3 -2 -4 at version 2", d)
	}
	put(3)
	put(2)
	d = nextDataFrame(t, dec)
	if d.Type != watch.FrameDelta || d.Version != 4 ||
		!reflect.DeepEqual(tupleSet(d.Add), terms("2", "4")) || !reflect.DeepEqual(tupleSet(d.Del), terms("3")) {
		t.Fatalf("frame after the third re-PUT = %+v, want delta +2 +4 -3 at version 4, and nothing for the second", d)
	}
}

func TestWatchNonUniformResync(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	if _, err := reg.PutProgram("mix", []byte("Even(0).\nEven(T) -> Even(T+2).\nSeen(a).")); err != nil {
		t.Fatal(err)
	}
	_, dec := openWatch(t, ts, "mix", map[string]any{"query": "?- Even(T+2).", "depth": 8})
	init := nextDataFrame(t, dec)
	if init.Type != watch.FrameInit {
		t.Fatalf("first frame = %+v, want init", init)
	}
	if _, err := reg.ExtendFacts("mix", []byte("Seen(b).")); err != nil {
		t.Fatal(err)
	}
	f := nextDataFrame(t, dec)
	if f.Type != watch.FrameResync || f.Reason != watch.ReasonNonUniform {
		t.Fatalf("frame after extend = %+v, want resync (%s)", f, watch.ReasonNonUniform)
	}
	if len(f.Add) != len(init.Add) {
		t.Fatalf("resync has %d answers, init had %d", len(f.Add), len(init.Add))
	}
}

func TestWatchEndFrameOnDatabaseRemoval(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	if _, err := reg.PutProgram("seen", []byte("Seen(a).")); err != nil {
		t.Fatal(err)
	}
	_, dec := openWatch(t, ts, "seen", map[string]any{"query": "?- Seen(X)."})
	nextDataFrame(t, dec)
	if _, err := reg.Remove("seen"); err != nil {
		t.Fatal(err)
	}
	f := nextDataFrame(t, dec)
	if f.Type != watch.FrameEnd || f.Reason != watch.ReasonDeleted {
		t.Fatalf("frame after removal = %+v, want end (%s)", f, watch.ReasonDeleted)
	}
}

func TestWatchHeartbeats(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{WatchHeartbeat: 30 * time.Millisecond})
	if _, err := reg.PutProgram("seen", []byte("Seen(a).")); err != nil {
		t.Fatal(err)
	}
	_, dec := openWatch(t, ts, "seen", map[string]any{"query": "?- Seen(X)."})
	var f watch.Frame
	if err := dec.Decode(&f); err != nil || f.Type != watch.FrameInit {
		t.Fatalf("first frame = %+v (%v), want init", f, err)
	}
	if err := dec.Decode(&f); err != nil || f.Type != watch.FrameHeartbeat {
		t.Fatalf("idle frame = %+v (%v), want heartbeat", f, err)
	}
}

// TestWatchReadOnlyServed checks that a read-only daemon (a replica) still
// serves watches: a watch is a read.
func TestWatchReadOnlyServed(t *testing.T) {
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("seen", []byte("Seen(a).")); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Config{ReadOnly: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	_, dec := openWatch(t, ts, "seen", map[string]any{"query": "?- Seen(X)."})
	if f := nextDataFrame(t, dec); f.Type != watch.FrameInit {
		t.Fatalf("first frame = %+v, want init", f)
	}
}

func TestWatchRequestErrors(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{})
	if _, err := reg.PutProgram("seen", []byte("Seen(a).")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		db     string
		body   map[string]any
		status int
		code   string
	}{
		{"missing query", "seen", map[string]any{}, http.StatusBadRequest, "bad_request"},
		{"parse error", "seen", map[string]any{"query": "?- Seen("}, http.StatusBadRequest, "parse_error"},
		{"unknown db", "nope", map[string]any{"query": "?- Seen(X)."}, http.StatusNotFound, "not_found"},
		{"non-uniform on a spec entry", "evenspec", map[string]any{"query": "?- Even(T+1)."}, http.StatusUnprocessableEntity, "needs_rules"},
		{"depth out of range", "seen", map[string]any{"query": "?- Seen(X).", "depth": 1 << 20}, http.StatusBadRequest, "bad_request"},
		{"behind resume point", "seen", map[string]any{"query": "?- Seen(X).", "from_lsn": 99}, http.StatusConflict, "watch_behind"},
	} {
		code, body := doJSON(t, "POST", ts.URL+"/v1/db/"+tc.db+"/watch", tc.body)
		if code != tc.status || errCode(body) != tc.code {
			t.Errorf("%s: status %d code %q, want %d %q (%v)", tc.name, code, errCode(body), tc.status, tc.code, body)
		}
	}
}

func TestWatchStreamCap(t *testing.T) {
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("seen", []byte("Seen(a).")); err != nil {
		t.Fatal(err)
	}
	hub := watch.NewHub(watch.Options{Reg: reg, MaxStreams: 1})
	t.Cleanup(hub.Close)
	reg.SetNotifier(hub.Notify)
	srv := New(reg, Config{Watch: hub})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	_, dec := openWatch(t, ts, "seen", map[string]any{"query": "?- Seen(X)."})
	nextDataFrame(t, dec) // stream established and held open
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/seen/watch", map[string]any{"query": "?- Seen(X)."})
	if code != http.StatusTooManyRequests || errCode(body) != "too_many_streams" {
		t.Fatalf("second watch: status %d code %q, want 429 too_many_streams", code, errCode(body))
	}
}
