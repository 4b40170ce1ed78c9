// Package api is the one kit that fdbd, fdbrouter and every caller of their
// HTTP API share. It owns three decisions and nothing else:
//
//   - the error envelope {"error":{"code","message"}} — one Error type, one
//     writer, one bounded decoder, and the names of the headers the daemons
//     exchange (error.go);
//   - the request pipeline — handlers on both daemons return errors, and one
//     wrapper gives every request its ID, its trace, its envelope, its
//     flight-recorder entry and its log line (handler.go);
//   - the client — one *http.Client, one way to build a request, and one
//     policy for which failures move to another endpoint, which are retried
//     in place after a pause, and which are final (client.go).
//
// Everything else — admission and per-fingerprint stats on fdbd, proxy
// histograms on the router, what a caller does with a decoded body — stays
// with its owner. A guard test (guard_test.go) keeps copies of the three from
// growing back elsewhere in the module.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Headers the daemons and their clients exchange.
const (
	// HeaderAPIKey carries the tenant's API key. The router forwards it
	// unchanged, so per-tenant policy holds across shards.
	HeaderAPIKey = "X-Api-Key"
	// HeaderRequestID names one request in one process's logs.
	HeaderRequestID = "X-Request-Id"
	// HeaderTraceID names one request in every flight recorder it crossed.
	HeaderTraceID = "X-Trace-Id"
	// HeaderRouter marks a request forwarded by an fdbrouter; the value is
	// the shard-map version it was routed under.
	HeaderRouter = "X-Funcdb-Router"
	// HeaderShard names the shard group that answered a routed request.
	HeaderShard = "X-Funcdb-Shard"
	// HeaderRetryAfter is how long a transient refusal asks clients to wait,
	// in whole seconds.
	HeaderRetryAfter = "Retry-After"

	// ContentJSON is the media type of every JSON body.
	ContentJSON = "application/json"
)

// StatusClientClosedRequest is the nonstandard (nginx) status for a request
// whose client went away before the answer was computed.
const StatusClientClosedRequest = 499

// AnonymousTenant is the tenant requests without an API key fall under.
const AnonymousTenant = "anonymous"

// Error is a refusal in the daemons' one error shape: what a handler returns
// to have it rendered, and what a client gets back for a non-2xx response.
type Error struct {
	Status  int
	Code    string // machine-readable; the status/code table is in README.md
	Message string
	// RetryAfter, when positive, is sent (and was received) as a Retry-After
	// header in seconds: the refusal is transient.
	RetryAfter int
}

func (e *Error) Error() string { return e.Message }

// Errorf builds an Error.
func Errorf(status int, code, format string, args ...any) *Error {
	return &Error{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// WithRetryAfter marks e transient.
func (e *Error) WithRetryAfter(seconds int) *Error {
	e.RetryAfter = seconds
	return e
}

// AsError returns err as an *Error: itself when it is (or wraps) one, and a
// 500 internal carrying its text otherwise.
func AsError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	return &Error{Status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
}

// Detail renders err for a log line or a partial-failure report: a daemon's
// refusal as "code: message" ("http 503" when the body was no envelope), and
// anything else — a transport failure — as its own text.
func Detail(err error) string {
	var e *Error
	switch {
	case !errors.As(err, &e):
		return err.Error()
	case e.Code == "":
		return "http " + strconv.Itoa(e.Status)
	}
	return e.Code + ": " + e.Message
}

// ErrorBody is an error on the wire: under "error" in the envelope, and
// inline per item in batch responses.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Body returns e's wire form.
func (e *Error) Body() *ErrorBody { return &ErrorBody{Code: e.Code, Message: e.Message} }

type envelope struct {
	Error *ErrorBody `json:"error"`
}

// encode writes v the way every response body is written: one line of JSON,
// HTML escaping off.
func encode(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// WriteJSON sends v as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentJSON)
	w.WriteHeader(status)
	encode(w, v)
}

// WriteError sends e as the envelope, with Retry-After when e is transient.
func WriteError(w http.ResponseWriter, e *Error) {
	if e.RetryAfter > 0 {
		w.Header().Set(HeaderRetryAfter, strconv.Itoa(e.RetryAfter))
	}
	WriteJSON(w, e.Status, envelope{e.Body()})
}

// Envelope returns the body WriteError sends for e, less the final newline:
// the form http.TimeoutHandler wants its canned reply in.
func (e *Error) Envelope() string {
	var b bytes.Buffer
	encode(&b, envelope{e.Body()})
	return strings.TrimSuffix(b.String(), "\n")
}

// maxErrorBody bounds how much of a refusal's body is read: envelopes are a
// few hundred bytes, and the sender is not trusted.
const maxErrorBody = 64 << 10

// ReadError consumes a non-2xx response: it reads at most maxErrorBody of
// the body, closes it, and decodes what it read.
func ReadError(resp *http.Response) *Error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	resp.Body.Close()
	return DecodeError(resp.StatusCode, resp.Header, body)
}

// DecodeError decodes a refusal from its parts. It understands both envelope
// generations — {"error":{"code","message"}} and the older flat
// {"error":"..."} — and falls back to the status text for anything else (a
// mux's plain-text 405, a proxy's HTML). Retry-After is read as whole
// seconds; an HTTP-date or a malformed value reads as none.
func DecodeError(status int, h http.Header, body []byte) *Error {
	e := &Error{Status: status, Message: http.StatusText(status)}
	if secs, err := strconv.Atoi(strings.TrimSpace(h.Get(HeaderRetryAfter))); err == nil && secs > 0 {
		e.RetryAfter = secs
	}
	var env struct {
		Error json.RawMessage `json:"error"`
	}
	if json.Unmarshal(body, &env) != nil || len(env.Error) == 0 {
		return e
	}
	var nested ErrorBody
	var flat string
	if json.Unmarshal(env.Error, &nested) == nil && nested.Message != "" {
		e.Code, e.Message = nested.Code, nested.Message
	} else if json.Unmarshal(env.Error, &flat) == nil && flat != "" {
		e.Message = flat
	}
	return e
}
