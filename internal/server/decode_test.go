package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"funcdb/internal/api"
)

// requestKinds are the five request objects, each with the endpoint that
// reads it and a body that endpoint accepts: an object whose first member is
// member with the JSON value, then rest.
var requestKinds = []struct {
	name, path          string
	fresh               func() (req any, fields []field)
	member, value, rest string
}{
	{"facts", "/v1/db/even/facts", func() (any, []field) { r := &factsRequest{}; return r, r.fields() },
		"facts", `"Even(100)."`, ``},
	{"ask", "/v1/db/even/ask", func() (any, []field) { r := &askRequest{}; return r, r.fields() },
		"query", `"?- Even(4)."`, ``},
	{"answers", "/v1/db/even/answers", func() (any, []field) { r := &answersRequest{}; return r, r.fields() },
		"query", `"?- Even(T)."`, `,"depth":4`},
	{"batch", "/v1/db/even/batch", func() (any, []field) { r := &batchRequest{}; return r, r.fields() },
		"queries", `["?- Even(4).","?- Even(3)."]`, `,"trace":false`},
	{"watch", "/v1/db/even/watch", func() (any, []field) { r := &watchRequest{}; return r, r.fields() },
		"query", `"?- Even(T)."`, `,"depth":2,"from_lsn":0`},
}

// post sends body and returns the status and, for an error, its code. A
// 200's body is left unread (a watch's is a stream).
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var env struct {
		Error api.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("%s: status %d without an error envelope: %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, env.Error.Code
}

// TestStrictRequestBodies: every endpoint that reads a JSON request refuses
// the same malformed bodies the same way, and accepts the same odd but valid
// ones.
func TestStrictRequestBodies(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	for _, k := range requestKinds {
		t.Run(k.name, func(t *testing.T) {
			member := `"` + k.member + `":` + k.value
			good := "{" + member + k.rest + "}"
			for _, tc := range []struct {
				name, body string
				ok         bool
			}{
				{"valid", good, true},
				{"surrounding whitespace", " \r\n\t{ " + member + " " + k.rest + " }\n ", true},
				{"escaped member name", fmt.Sprintf(`{"\u%04x%s":%s}`, k.member[0], k.member[1:], k.value), true},
				{"null member beside it", "{" + member + `,"trace":null}`, k.name != "facts" && k.name != "watch"},
				{"trailing data", good + "garbage", false},
				{"second object", good + good, false},
				{"unknown member", `{"bogus":1,` + good[1:], false},
				{"member name in another case", `{"` + strings.ToUpper(k.member) + `":` + k.value + "}", false},
				{"wrong type", `{"` + k.member + `":17}`, false},
				{"duplicate member", "{" + member + "," + member + "}", false},
				{"null body", `null`, false}, // decodes to nothing: the member is missing
				{"null member", `{"` + k.member + `":null}`, false},
				{"array body", "[" + good + "]", false},
				{"unterminated", good[:len(good)-1], false},
				{"raw newline in a string", strings.Replace(good, ".", ".\n", 1), false},
				{"empty body", ``, false},
				{"whitespace body", " \n", false},
			} {
				if tc.ok && k.name == "watch" {
					continue // a stream: the watch tests read those
				}
				status, code := post(t, ts.URL+k.path, tc.body)
				if tc.ok && status != http.StatusOK || !tc.ok && (status != 400 || code != "bad_request") {
					t.Errorf("%s: %q -> %d %q (want ok: %v)", tc.name, tc.body, status, code, tc.ok)
				}
			}
		})
	}

	// What a string may hold. The decoder's part is to hand the parser the
	// characters the JSON names: what the parser makes of them is not 400
	// bad_request, what the decoder refuses is.
	for _, tc := range []struct {
		name, body string
		badRequest bool
	}{
		{"escaped quote and backslash", `{"query":"?- Even(\"\\)."}`, false},
		{"escaped whitespace", `{"query":"?-\t\n Even(4)\r."}`, false},
		{"escaped solidus", `{"query":"?- Even(4)\/."}`, false},
		{"unicode escape of a letter", `{"query":"?- \u0045ven(4)."}`, false},
		{"two-byte rune", `{"query":"?- Evén(4)."}`, false},
		{"surrogate pair", `{"query":"?- Even(\ud83d\ude00)."}`, false},
		{"four-byte rune", `{"query":"?- Even(😀)."}`, false},
		{"lone surrogate (becomes U+FFFD)", `{"query":"?- Even(\ud83d)."}`, false},
		{"invalid UTF-8 (becomes U+FFFD)", "{\"query\":\"?- Even(\xff).\"}", false},
		{"negative zero", `{"query":"?- Even(T).","depth":-0}`, false},
		{"bad escape", `{"query":"?- Even(\x34)."}`, true},
		{"short unicode escape", `{"query":"?- Even(\u12)."}`, true},
		{"fraction for an integer", `{"query":"?- Even(T).","depth":1.0}`, true},
		{"exponent for an integer", `{"query":"?- Even(T).","depth":1e1}`, true},
		{"integer out of range", `{"query":"?- Even(T).","depth":99999999999999999999}`, true},
		{"leading zero", `{"query":"?- Even(T).","depth":01}`, true},
	} {
		path := "/v1/db/even/ask"
		if strings.Contains(tc.body, "depth") {
			path = "/v1/db/even/answers"
		}
		if status, code := post(t, ts.URL+path, tc.body); (code == "bad_request") != tc.badRequest {
			t.Errorf("%s: %q -> %d %q (want bad_request: %v)", tc.name, tc.body, status, code, tc.badRequest)
		}
	}
	for body, want := range map[string]bool{
		`{"query":"?-\t\n \u0045ven(4)\r."}`: true,
		`{"query":"?- Even(\u0035)."}`:       false,
	} {
		code, got := doJSON(t, "POST", ts.URL+"/v1/db/even/ask", body)
		if code != http.StatusOK || got["answer"] != want {
			t.Errorf("%q -> %d %v, want answer %v", body, code, got, want)
		}
	}
}

// TestBodyLimit: a body of exactly MaxBodyBytes is read, one byte more is
// 413 body_too_large whether declared or chunked, and a Content-Length over
// the limit is refused without reading the body at all — a request object or
// an upload alike, since both are read by one reader.
func TestBodyLimit(t *testing.T) {
	const limit = 256
	_, _, ts := newTestServer(t, Config{MaxBodyBytes: limit})
	pad := func(body string, size int) string { return body + strings.Repeat(" ", size-len(body)) }
	for _, k := range requestKinds {
		if k.name == "watch" {
			continue // its 200 is a stream; the limit is enforced by the shared reader
		}
		good := `{"` + k.member + `":` + k.value + k.rest + "}"
		if status, code := post(t, ts.URL+k.path, pad(good, limit)); status != http.StatusOK {
			t.Errorf("%s: body of exactly the limit -> %d %q, want 200", k.name, status, code)
		}
		if status, code := post(t, ts.URL+k.path, pad(good, limit+1)); status != 413 || code != "body_too_large" {
			t.Errorf("%s: body one byte over the limit -> %d %q, want 413 body_too_large", k.name, status, code)
		}
		// No Content-Length: the limit is found while reading.
		req, _ := http.NewRequest("POST", ts.URL+k.path, io.MultiReader(strings.NewReader(pad(good, limit+1))))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 413 {
			t.Errorf("%s: chunked body one byte over the limit -> %d, want 413", k.name, resp.StatusCode)
		}
	}
	// An upload: a program one byte over the limit, with no Content-Length.
	req, _ := http.NewRequest("PUT", ts.URL+"/v1/db/big", io.MultiReader(strings.NewReader(pad("Even(0).", limit+1))))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 413 {
		t.Errorf("PUT: chunked body one byte over the limit -> %d, want 413", resp.StatusCode)
	}

	// Headers that declare a megabyte and not one byte of it: the refusal
	// must not wait for the body.
	for _, line := range []string{"POST /v1/db/even/ask", "PUT /v1/db/big"} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "%s HTTP/1.1\r\nHost: x\r\nContent-Length: 1048576\r\n\r\n", line)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: no answer to an over-limit Content-Length: %v", line, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != 413 || !strings.Contains(string(raw), "body_too_large") {
			t.Errorf("%s: over-limit Content-Length -> %d %s, want 413 body_too_large", line, resp.StatusCode, raw)
		}
	}
}

// UnmarshalJSON reads a queryText as encoding/json reads a string, so the
// reference decodes an ask's query to the bytes the view holds. A null
// leaves it alone, as a null member does.
func (t *queryText) UnmarshalJSON(data []byte) error {
	var s *string
	if err := json.Unmarshal(data, &s); err != nil || s == nil {
		return err
	}
	*t = queryText(*s)
	return nil
}

// referenceDecode is the decoder this package's own is measured against:
// encoding/json, unknown members refused, reading one value from a stream.
// rest is what follows that value.
func referenceDecode(data []byte, into any) (rest []byte, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return nil, err
	}
	return data[dec.InputOffset():], nil
}

// divergence names the way, if any, in which a body the reference accepts is
// one the strict decoder refuses by design (DESIGN.md lists the three).
func divergence(data, rest []byte, fields []field) string {
	if len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
		return "data after the object"
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return "" // null
	}
	seen := make(map[string]bool)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		key := tok.(string)
		if seen[key] {
			return "member repeated"
		}
		seen[key] = true
		declared := false
		for _, f := range fields {
			declared = declared || f.name == key
		}
		if !declared {
			return "member name in another case" // the reference folds case; it refused unknown names
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return ""
		}
	}
	return ""
}

// FuzzDecodeRequest: decodeObject accepts exactly what the reference accepts
// minus the named divergences, and decodes it to the same values.
func FuzzDecodeRequest(f *testing.F) {
	for i, k := range requestKinds {
		f.Add(uint8(i), []byte(`{"`+k.member+`":`+k.value+k.rest+"}"))
	}
	for _, body := range []string{
		`null`, `{}`, ` { } `, `{"query":null,"trace":true}`, `{"query":"a","query":"b"}`, `{"Query":"a"}`,
		`{"query":"a"}x`, `{"queries":[null,"a",""],"trace":false}`, `{"queries":[]}`, `{"queries":null}`,
		`{"query":"é😀\ud83dA\"\\\/\b\f\n\r\t"}`, "{\"query\":\"\xff\xc3\"}",
		`{"query":"x","depth":-0,"limit":10,"trace":true}`, `{"depth":1.5}`, `{"depth":1e3}`, `{"depth":007}`,
		`{"from_lsn":18446744073709551615}`, `{"from_lsn":18446744073709551616}`, `{"from_lsn":-0}`, `{"from_lsn":-1}`,
		`{"query":"a",}`, `{"query"}`, `{"query":"a" "via":"cc"}`, `[1]`, `"query"`, `{"query":"a"}`,
	} {
		for i := range requestKinds {
			f.Add(uint8(i), []byte(body))
		}
	}
	// The benchmark's bodies (bench/workloads.go: askBody, answersBody) around
	// every query of the acceptance corpus.
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.fdb"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus to seed from: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if i := strings.Index(line, "?-"); strings.HasPrefix(line, "%!") && i >= 0 {
				q := strings.TrimSpace(line[i:])
				f.Add(uint8(1), []byte(`{"query":"`+q+`"}`))
				f.Add(uint8(2), []byte(`{"query":"`+q+`","depth":3,"limit":1000}`))
				f.Add(uint8(3), []byte(`{"queries":["`+q+`","`+q+`"]}`))
			}
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		k := requestKinds[int(kind)%len(requestKinds)]
		want, _ := k.fresh()
		got, fields := k.fresh()
		rest, refErr := referenceDecode(data, want)
		err := decodeObject(data, fields)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("%s: accepted %q, which encoding/json refuses: %v", k.name, data, refErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("%s: %q decoded to %+v, encoding/json to %+v", k.name, data, got, want)
		case err == nil:
			if why := divergence(data, rest, fields); why != "" {
				t.Fatalf("%s: accepted %q despite %s", k.name, data, why)
			}
		case refErr == nil:
			if divergence(data, rest, fields) == "" {
				t.Fatalf("%s: refused %q (%v), which encoding/json accepts as %+v", k.name, data, err, want)
			}
		}
	})
}

// TestDecodeObjectValues spot-checks decoded values the HTTP tests cannot
// see, the fuzz target's oracle included.
func TestDecodeObjectValues(t *testing.T) {
	var req answersRequest
	body := `{"trace":true,"limit":7,"query":"aé😀\ud83dz\"\\\/\b\f\n\r\t","depth":-0}`
	if err := decodeObject([]byte(body), req.fields()); err != nil {
		t.Fatal(err)
	}
	want := answersRequest{Query: "aé😀�z\"\\/\b\f\n\r\t", Depth: 0, Limit: 7, Trace: true}
	if req != want {
		t.Fatalf("decoded %+v, want %+v", req, want)
	}
	var ref answersRequest
	if _, err := referenceDecode([]byte(body), &ref); err != nil || ref != want {
		t.Fatalf("reference decoded %+v (%v), want %+v", ref, err, want)
	}
	var batch batchRequest
	if err := decodeObject([]byte(`{"queries":["a",null,"b"]}`), batch.fields()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch.Queries, []string{"a", "", "b"}) {
		t.Fatalf("decoded %q", batch.Queries)
	}
	for body, why := range map[string]string{
		`{"query":"a"} x`:            "data after the object",
		`{"query":"a","query":"b"}`:  "member repeated",
		`{"QUERY":"a"}`:              "member name in another case",
		`{"query":"a","limit":null}`: "",
	} {
		var ref answersRequest
		rest, err := referenceDecode([]byte(body), &ref)
		if err != nil {
			t.Fatalf("reference refused %q: %v", body, err)
		}
		if got := divergence([]byte(body), rest, ref.fields()); got != why {
			t.Errorf("divergence(%q) = %q, want %q", body, got, why)
		}
	}
}

// TestDecodeNeverRetainsTheBuffer: decoded strings are copies, so a pooled
// buffer can be reused the moment decode returns.
func TestDecodeNeverRetainsTheBuffer(t *testing.T) {
	body := []byte(`{"queries":["abc","def"],"trace":true}`)
	var req batchRequest
	if err := decodeObject(body, req.fields()); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'X'
	}
	if !reflect.DeepEqual(req.Queries, []string{"abc", "def"}) {
		t.Fatalf("decoded strings alias the buffer: %q", req.Queries)
	}
}

// TestVerbatim pins the word-at-a-time scan against the byte-at-a-time
// definition at every offset of a word.
func TestVerbatim(t *testing.T) {
	base := []byte(strings.Repeat("abcdefgh", 4))
	for pos := 0; pos < len(base); pos++ {
		for _, c := range []byte{0x00, 0x1f, 0x20, '\\', '"', 0x7f, 0x80, 0xff} {
			s := append([]byte(nil), base...)
			s[pos] = c
			want := c >= 0x20 && c != '\\' && c < 0x80
			if got := verbatim(s); got != want {
				t.Fatalf("verbatim with %#x at %d = %v, want %v", c, pos, got, want)
			}
		}
		s := append(append([]byte(nil), base[:pos]...), "é"...)
		if !verbatim(append(s, base[pos:]...)) {
			t.Fatalf("valid two-byte rune at %d refused", pos)
		}
	}
}
