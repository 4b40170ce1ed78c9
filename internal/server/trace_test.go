package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"funcdb/internal/admission"
	"funcdb/internal/obs"
)

// getJSON is doJSON for GETs needing custom headers; returns status,
// headers, decoded body.
func getJSON(t testing.TB, url string, hdr map[string]string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	if len(raw) > 0 {
		json.Unmarshal(raw, &out)
	}
	return resp.StatusCode, resp.Header, out
}

// TestTraceparentAdoption: a request carrying a W3C traceparent header runs
// under the caller's trace ID — echoed in X-Trace-Id, recorded under that ID
// in the flight recorder, with the remote parent noted in the report.
func TestTraceparentAdoption(t *testing.T) {
	srv, _, ts := newTestServer(t, Config{})
	tid, pid := obs.NewTraceID(), obs.NewSpanID()

	req, err := http.NewRequest("POST", ts.URL+"/v1/db/even/ask",
		strings.NewReader(`{"query":"?- Even(4)."}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(tid, pid))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != tid {
		t.Fatalf("X-Trace-Id = %q, want adopted %q", got, tid)
	}

	// Retention is tail-based, so an unremarkable adopted request only rides
	// 1-in-N sampling; set the trace flag to force retention and assert the
	// recorder entry carries the adopted ID and the remote parent.
	req, err = http.NewRequest("POST", ts.URL+"/v1/db/even/ask",
		strings.NewReader(`{"query":"?- Even(4).","trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	tid2 := obs.NewTraceID()
	req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(tid2, pid))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	e := srv.rec.Get(tid2)
	if e == nil {
		t.Fatalf("recorder has no entry for adopted trace %s", tid2)
	}
	if e.Report == nil || e.Report.RemoteParent != pid {
		t.Fatalf("remote parent not recorded: %+v", e.Report)
	}
	if e.Endpoint != "ask" || e.DB != "even" || e.Outcome != obs.OutcomeOK {
		t.Fatalf("entry = %+v", e)
	}
}

// TestDebugTraces: errors and budget kills land in /debug/traces without
// anyone having asked for a trace; the list filters by outcome and the get
// endpoint returns the full span tree.
func TestDebugTraces(t *testing.T) {
	_, reg, ts := newTestServer(t, depthLimit(2))
	if _, err := reg.PutProgram("meetings", []byte(cycleSrc)); err != nil {
		t.Fatal(err)
	}

	// One ok ask, one parse error, one depth-budget kill.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/even/ask",
		map[string]any{"query": "?- Even(4)."}); code != http.StatusOK {
		t.Fatalf("ok ask: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/even/ask",
		map[string]any{"query": "this is not a query"}); code != http.StatusBadRequest {
		t.Fatalf("bad ask: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/meetings/answers",
		map[string]any{"query": "?- Meets(T+1, p0).", "depth": 20}); code != http.StatusUnprocessableEntity {
		t.Fatalf("budget ask: %d", code)
	}

	code, _, body := getJSON(t, ts.URL+"/debug/traces", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %v", code, body)
	}
	byOutcome := map[string]map[string]any{}
	traces, _ := body["traces"].([]any)
	for _, raw := range traces {
		e, _ := raw.(map[string]any)
		byOutcome[e["outcome"].(string)] = e
	}
	if byOutcome["error"] == nil || byOutcome["budget_kill"] == nil {
		t.Fatalf("error/budget_kill not retained: %v", body)
	}
	if byOutcome["budget_kill"]["code"] != "depth_budget_exceeded" {
		t.Fatalf("budget kill entry = %v", byOutcome["budget_kill"])
	}

	// Outcome filter narrows the list.
	code, _, body = getJSON(t, ts.URL+"/debug/traces?outcome=budget_kill", nil)
	if code != http.StatusOK {
		t.Fatalf("filtered list: %d", code)
	}
	traces, _ = body["traces"].([]any)
	if len(traces) != 1 {
		t.Fatalf("outcome filter kept %d entries", len(traces))
	}
	id, _ := traces[0].(map[string]any)["id"].(string)

	// Get by ID returns the report with spans.
	code, _, body = getJSON(t, ts.URL+"/debug/traces/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("get: %d %v", code, body)
	}
	rep, _ := body["report"].(map[string]any)
	if rep == nil {
		t.Fatalf("entry has no report: %v", body)
	}
	if spans, _ := rep["spans"].([]any); len(spans) == 0 {
		t.Fatalf("report has no spans: %v", rep)
	}

	// Unknown ID is a 404; bad n is a 400.
	if code, _, _ = getJSON(t, ts.URL+"/debug/traces/ffffffffffffffffffffffffffffffff", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", code)
	}
	if code, _, _ = getJSON(t, ts.URL+"/debug/traces?n=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad n: %d", code)
	}
}

// TestRecorderDisabled: TraceBuffer -1 restores the opt-in-only behavior —
// no X-Trace-Id header, no /debug/traces routes — while explicit
// "trace":true responses still carry a span tree.
func TestRecorderDisabled(t *testing.T) {
	_, _, ts := newTestServer(t, Config{TraceBuffer: -1})
	req, err := http.NewRequest("POST", ts.URL+"/v1/db/even/ask",
		strings.NewReader(`{"query":"?- Even(4).","trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.Header.Get("X-Trace-Id") != "" {
		t.Fatal("recorder disabled but X-Trace-Id set")
	}
	if out["trace"] == nil {
		t.Fatal("opt-in trace missing with recorder disabled")
	}
	if code, _, _ := getJSON(t, ts.URL+"/debug/traces", nil); code != http.StatusNotFound {
		t.Fatalf("/debug/traces with recorder disabled: %d", code)
	}
}

// TestObservabilityExposition scrapes /metrics and checks the families this
// layer adds: build info, the recorder's meta-counters, the per-fingerprint
// query series, and the admission wait histogram — all well-formed text
// exposition.
func TestObservabilityExposition(t *testing.T) {
	ctl := admission.New(admission.Options{Concurrency: 8})
	t.Cleanup(ctl.Close)
	_, _, ts := newTestServer(t, Config{Admission: ctl})
	for i := 0; i < 3; i++ {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/even/ask",
			map[string]any{"query": fmt.Sprintf("?- Even(%d).", 2*i)}); code != http.StatusOK {
			t.Fatalf("ask %d failed", i)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	if err := obs.CheckExposition(text); err != nil {
		t.Fatalf("exposition: %v", err)
	}
	for _, want := range []string{
		"funcdbd_build_info{",
		"funcdbd_traces_offered_total",
		"funcdbd_traces_retained_total",
		"funcdbd_query_requests_total{",
		"funcdbd_query_seconds_bucket{",
		"funcdbd_query_depth_bucket{",
		"funcdbd_query_algoq_steps_bucket{",
		"funcdbd_admission_wait_seconds_bucket{",
		`fingerprint="`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestRecordedQueryTextIsClipped: a request with a long query leaves at most
// obs.MaxQueryText bytes of it (plus the "…(+N bytes)" suffix) in its
// flight-recorder entry and in the slow-query log line, with the fingerprint
// its plan was compiled with.
func TestRecordedQueryTextIsClipped(t *testing.T) {
	var logged bytes.Buffer
	srv, _, ts := newTestServer(t, Config{
		SlowQuery: time.Nanosecond, // every evaluation is "slow": logged, and retained by the recorder
		Logger:    slog.New(slog.NewTextHandler(&logged, nil)),
	})
	query := "?- Even(4)" + strings.Repeat(",   Even(4)", 4096) + "."
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/even/ask", map[string]any{"query": query})
	if code != http.StatusOK || body["answer"] != true {
		t.Fatalf("ask: %d %v", code, body)
	}
	want := obs.ClipQuery(query)
	if len(want) > obs.MaxQueryText+32 || !strings.HasSuffix(want, " bytes)") || strings.Contains(want, "  ") {
		t.Fatalf("ClipQuery left %d bytes: %q", len(want), want)
	}
	entries := srv.rec.List(10)
	if len(entries) != 1 || entries[0].Query != want {
		t.Fatalf("recorded %d entries, query %q\nwant %q", len(entries), entries[0].Query, want)
	}
	e, _ := srv.reg.Get("even")
	plan, err := e.Prepare(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Fingerprint != plan.Fingerprint() || plan.Fingerprint() != obs.Fingerprint(plan.Shape()) {
		t.Errorf("entry fingerprint %q, plan %q, shape hash %q",
			entries[0].Fingerprint, plan.Fingerprint(), obs.Fingerprint(plan.Shape()))
	}
	line := logged.String()
	if !strings.Contains(line, "slow query") || !strings.Contains(line, "(+") || len(line) > obs.MaxQueryText+1024 {
		t.Errorf("slow-query log line of %d bytes: %.300q", len(line), line)
	}
}
