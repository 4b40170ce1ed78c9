package api

import (
	"bytes"
	"net/http"
	"testing"
)

// FuzzReadError feeds ReadError untrusted response bodies and Retry-After
// values: it must not panic, must not read past its bound, must always come
// back with the status and a message, and must decode code and message
// exactly as the decoder it replaced did.
func FuzzReadError(f *testing.F) {
	for _, seed := range []struct {
		body, retryAfter string
		status           int
	}{
		{`{"error":{"code":"not_found","message":"no database named \"x\""}}` + "\n", "", 404},
		{`{"error":"flat"}`, "2", 500},
		{`{"error":{"code":"rate_limited","message":"m","extra":[1,2]}}`, "7", 429},
		{`{"error":{"message":""}}`, "-1", 503},
		{`{"error":null}`, "Wed, 21 Oct 2026 07:28:00 GMT", 502},
		{`{"error":{"code":7,"message":"m"}}`, "99999999999999999999", 400},
		{"Method Not Allowed\n", "", 405},
		{"", "", 799},
		{`[`, " 3 ", 0},
	} {
		f.Add([]byte(seed.body), seed.retryAfter, seed.status)
	}
	f.Fuzz(func(t *testing.T, body []byte, retryAfter string, status int) {
		rd := &countingBody{r: bytes.NewReader(body)}
		resp := &http.Response{StatusCode: status, Header: http.Header{"Retry-After": {retryAfter}}, Body: rd}
		e := ReadError(resp)
		if rd.n > maxErrorBody || !rd.closed {
			t.Fatalf("read %d bytes past the bound %d, closed=%v", rd.n, maxErrorBody, rd.closed)
		}
		if e.Status != status || e.RetryAfter < 0 {
			t.Fatalf("status %d, Retry-After %d from (%d, %q)", e.Status, e.RetryAfter, status, retryAfter)
		}
		if len(body) > maxErrorBody {
			return // the reference decoder saw the whole body; ReadError, by design, did not
		}
		if code, msg := remoteErrorParts(body, status); e.Code != code || e.Message != msg {
			t.Fatalf("decoded (%q, %q), reference (%q, %q) from %q", e.Code, e.Message, code, msg, body)
		}
	})
}
