package api

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteErrorBytes pins the envelope: what json.Encoder with HTML
// escaping off writes for {"error":{"code","message"}}, a trailing newline,
// and Retry-After only for a transient refusal.
func TestWriteErrorBytes(t *testing.T) {
	for _, tc := range []struct {
		e          *Error
		want       string
		retryAfter string
	}{
		{Errorf(404, "not_found", "no database named %q", "a<b>&c"),
			`{"error":{"code":"not_found","message":"no database named \"a<b>&c\""}}`, ""},
		{Errorf(429, "rate_limited", "slow down").WithRetryAfter(3),
			`{"error":{"code":"rate_limited","message":"slow down"}}`, "3"},
		{Errorf(504, "deadline_exceeded", "context deadline exceeded"),
			`{"error":{"code":"deadline_exceeded","message":"context deadline exceeded"}}`, ""},
	} {
		w := httptest.NewRecorder()
		WriteError(w, tc.e)
		if w.Code != tc.e.Status || w.Body.String() != tc.want+"\n" {
			t.Errorf("WriteError: %d %q, want %d %q", w.Code, w.Body.String(), tc.e.Status, tc.want+"\n")
		}
		if got := w.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("Retry-After %q, want %q", got, tc.retryAfter)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("Content-Type %q", ct)
		}
	}
}

// TestReadError: both envelope generations, bodies that are no envelope,
// Retry-After in its readable and unreadable forms, and the read bound.
func TestReadError(t *testing.T) {
	for _, tc := range []struct {
		name, body, retryAfter string
		want                   Error
	}{
		{"envelope", `{"error":{"code":"not_found","message":"no such db"}}`, "", Error{404, "not_found", "no such db", 0}},
		{"flat envelope", `{"error":"old daemon says no"}`, "", Error{404, "", "old daemon says no", 0}},
		{"code without message", `{"error":{"code":"x"}}`, "", Error{404, "", "Not Found", 0}},
		{"plain text", "404 page not found\n", "", Error{404, "", "Not Found", 0}},
		{"empty", "", "", Error{404, "", "Not Found", 0}},
		{"seconds", `{"error":{"code":"resharding","message":"m"}}`, " 7 ", Error{404, "resharding", "m", 7}},
		{"http-date", `{}`, "Wed, 21 Oct 2026 07:28:00 GMT", Error{404, "", "Not Found", 0}},
		{"negative", `{}`, "-3", Error{404, "", "Not Found", 0}},
		{"trailing garbage", `{}`, "3s", Error{404, "", "Not Found", 0}},
	} {
		resp := &http.Response{StatusCode: 404, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(tc.body))}
		if tc.retryAfter != "" {
			resp.Header.Set("Retry-After", tc.retryAfter)
		}
		if got := ReadError(resp); *got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, *got, tc.want)
		}
	}

	// A hostile body is read up to the bound and no further, then closed.
	body := &countingBody{r: strings.NewReader(strings.Repeat("x", 4*maxErrorBody))}
	ReadError(&http.Response{StatusCode: 500, Header: http.Header{}, Body: body})
	if body.n > maxErrorBody || !body.closed {
		t.Errorf("read %d bytes (bound %d), closed=%v", body.n, maxErrorBody, body.closed)
	}
}

type countingBody struct {
	r      io.Reader
	n      int
	closed bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += n
	return n, err
}

func (b *countingBody) Close() error { b.closed = true; return nil }

func TestAsErrorAndDetail(t *testing.T) {
	refusal := Errorf(409, "resharding", "frozen")
	if got := AsError(fmt.Errorf("leg: %w", refusal)); got != refusal {
		t.Errorf("AsError lost the wrapped refusal: %+v", got)
	}
	if got := AsError(errors.New("boom")); got.Status != 500 || got.Code != "internal" || got.Message != "boom" {
		t.Errorf("AsError(plain) = %+v", got)
	}
	for _, tc := range []struct {
		err  error
		want string
	}{
		{refusal, "resharding: frozen"},
		{&Error{Status: 503, Message: "Service Unavailable"}, "http 503"},
		{errors.New("dial tcp: connection refused"), "dial tcp: connection refused"},
	} {
		if got := Detail(tc.err); got != tc.want {
			t.Errorf("Detail(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
