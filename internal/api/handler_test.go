package api

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"funcdb/internal/obs"
)

func pipeline(buf *bytes.Buffer) *Pipeline {
	return &Pipeline{
		Recorder: obs.NewRecorder(16, time.Hour, 1),
		Log:      slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug})),
		Node:     "router", Span: "route",
	}
}

// TestWrap: what every request on both daemons gets from the one wrapper.
func TestWrap(t *testing.T) {
	var logs bytes.Buffer
	p := pipeline(&logs)
	parent := obs.NewSpanID()

	for _, tc := range []struct {
		name       string
		h          Handler
		status     int
		body       string
		code       string // of the recorder entry
		outcome    string
		retryAfter string
	}{
		{"success", func(w http.ResponseWriter, r *http.Request) error {
			in := InfoFrom(r.Context())
			in.DB, in.Query, in.Fingerprint = "even", "?- Even(4).", "00000000deadbeef"
			io.WriteString(w, "fine")
			return nil
		}, 200, "fine", "", obs.OutcomeOK, ""},
		{"refusal", func(w http.ResponseWriter, r *http.Request) error {
			return Errorf(409, "resharding", "frozen").WithRetryAfter(1)
		}, 409, `{"error":{"code":"resharding","message":"frozen"}}` + "\n", "resharding", obs.OutcomeError, "1"},
		{"wrapped refusal", func(w http.ResponseWriter, r *http.Request) error {
			return fmt.Errorf("leg: %w", Errorf(429, "rate_limited", "slow down"))
		}, 429, `{"error":{"code":"rate_limited","message":"slow down"}}` + "\n", "rate_limited", obs.OutcomeShed, ""},
		{"any other error", func(w http.ResponseWriter, r *http.Request) error {
			return errors.New("disk on fire")
		}, 500, `{"error":{"code":"internal","message":"disk on fire"}}` + "\n", "internal", obs.OutcomeError, ""},
		{"relayed refusal", func(w http.ResponseWriter, r *http.Request) error {
			in := InfoFrom(r.Context())
			in.Status, in.Code = 422, "budget_exceeded"
			w.WriteHeader(422)
			io.WriteString(w, "as the shard sent it")
			return nil
		}, 422, "as the shard sent it", "budget_exceeded", obs.OutcomeBudgetKill, ""},
	} {
		logs.Reset()
		tid := obs.NewTraceID()
		var seen *Info
		srv := p.Wrap("ask", time.Minute, func(w http.ResponseWriter, r *http.Request) error {
			seen = InfoFrom(r.Context())
			if _, ok := r.Context().Deadline(); !ok {
				t.Errorf("%s: no deadline on the handler's context", tc.name)
			}
			if obs.FromContext(r.Context()) != seen.Trace || obs.CurrentSpanID(r.Context()) == 0 {
				t.Errorf("%s: handler is not under the request's trace and root span", tc.name)
			}
			return tc.h(w, r)
		})
		r := httptest.NewRequest("POST", "/v1/db/even/ask", strings.NewReader("{}"))
		r.Header.Set(HeaderAPIKey, "tenant-a")
		r.Header.Set(HeaderRouter, "v3")
		r.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(tid, parent))
		w := httptest.NewRecorder()
		srv(w, r)

		if w.Code != tc.status || w.Body.String() != tc.body {
			t.Errorf("%s: %d %q, want %d %q", tc.name, w.Code, w.Body.String(), tc.status, tc.body)
		}
		if len(w.Header().Get(HeaderRequestID)) != 16 || w.Header().Get(HeaderTraceID) != tid {
			t.Errorf("%s: request ID %q, trace ID %q (want the caller's %s)", tc.name,
				w.Header().Get(HeaderRequestID), w.Header().Get(HeaderTraceID), tid)
		}
		if got := w.Header().Get(HeaderRetryAfter); got != tc.retryAfter {
			t.Errorf("%s: Retry-After %q, want %q", tc.name, got, tc.retryAfter)
		}
		if seen.Endpoint != "ask" || seen.Tenant != "tenant-a" || seen.Start.IsZero() {
			t.Errorf("%s: Info %+v", tc.name, seen)
		}
		e := p.Recorder.Get(tid)
		if e == nil || e.Endpoint != "ask" || e.Tenant != "tenant-a" || e.Node != "router" ||
			e.Status != tc.status || e.Code != tc.code || e.Outcome != tc.outcome {
			t.Fatalf("%s: recorder entry %+v", tc.name, e)
		}
		if e.Report == nil || len(e.Report.Spans) == 0 || e.Report.Spans[0].Name != "route" || e.Report.RemoteParent != parent {
			t.Errorf("%s: entry's trace lacks the root span or the remote parent: %+v", tc.name, e.Report)
		}
		line := logs.String()
		for _, want := range []string{"endpoint=ask", "tenant=tenant-a", "request_id=" + w.Header().Get(HeaderRequestID), "trace_id=" + tid, "router=v3"} {
			if !strings.Contains(line, want) {
				t.Errorf("%s: log line lacks %s: %s", tc.name, want, line)
			}
		}
		if failed := tc.status >= 400 && tc.name != "relayed refusal"; failed != strings.Contains(line, "level=WARN") {
			t.Errorf("%s: wrong log level: %s", tc.name, line)
		}
	}
}

// TestWrapWithoutRecorder: no recorder, no trace — the handler still gets
// its Info, its request ID and its envelope.
func TestWrapWithoutRecorder(t *testing.T) {
	p := &Pipeline{Log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	var in *Info
	h := p.Wrap("dbs", 0, func(w http.ResponseWriter, r *http.Request) error {
		in = InfoFrom(r.Context())
		if _, ok := r.Context().Deadline(); ok {
			t.Error("deadline without a timeout")
		}
		return Errorf(404, "not_found", "nope")
	})
	w := httptest.NewRecorder()
	h(w, httptest.NewRequest("GET", "/v1/dbs", nil))
	if in == nil || in.Trace != nil || in.Tenant != AnonymousTenant {
		t.Fatalf("Info %+v", in)
	}
	if w.Code != 404 || w.Header().Get(HeaderRequestID) == "" || w.Header().Get(HeaderTraceID) != "" {
		t.Fatalf("%d %v", w.Code, w.Header())
	}
}

// TestWrapStreamsRecordOnlyFailures: a stream that ends well is not a
// latency sample; one that is refused is an error like any other.
func TestWrapStreamsRecordOnlyFailures(t *testing.T) {
	var logs bytes.Buffer
	p := pipeline(&logs)
	serve := func(h Handler) string {
		w := httptest.NewRecorder()
		p.Wrap("watch", 0, h)(w, httptest.NewRequest("POST", "/v1/db/even/watch", nil))
		return w.Header().Get(HeaderTraceID)
	}
	if id := serve(func(http.ResponseWriter, *http.Request) error { return nil }); p.Recorder.Get(id) != nil {
		t.Error("a healthy stream was recorded")
	}
	if id := serve(func(http.ResponseWriter, *http.Request) error { return Errorf(429, "too_many_streams", "cap") }); p.Recorder.Get(id) == nil {
		t.Error("a refused stream was not recorded")
	}
	if InfoFrom(context.Background()) != nil {
		t.Error("InfoFrom on a bare context")
	}
}
