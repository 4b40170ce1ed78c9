package api

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"funcdb/internal/leakcheck"
	"funcdb/internal/wire"
)

// TestHopCarriesARequest: a request over the hop reaches the handler as
// the same *http.Request an HTTP request would be — method, path, query,
// headers, body and length — and its response comes back with its status,
// headers and body. The same server keeps answering plain HTTP.
func TestHopCarriesARequest(t *testing.T) {
	ts := httptest.NewServer(ServeHop(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Add("X-Echo", r.Header.Get(HeaderAPIKey))
		w.Header().Add("X-Echo", r.URL.Query().Get("q"))
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, "%s %s %d %s", r.Method, r.URL.Path, r.ContentLength, body)
	})))
	t.Cleanup(ts.Close)
	c := NewClient(nil)
	t.Cleanup(c.Close)

	for _, hop := range []bool{true, true, false} { // the second hop call reuses the connection
		resp, err := c.Send(context.Background(), Request{Method: "PUT", URL: ts.URL + "/v1/db/x?q=a%20b",
			Body: []byte("payload"), APIKey: "k", Hop: hop})
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || string(raw) != "PUT /v1/db/x 7 payload" ||
			resp.Header.Get("Content-Type") != "text/plain" || !slices.Equal(resp.Header["X-Echo"], []string{"k", "a b"}) {
			t.Fatalf("hop %v: %d %q %v", hop, resp.StatusCode, raw, resp.Header)
		}
	}
	if n := len(c.hops[ts.URL]); n != 1 {
		t.Fatalf("%d idle hop connections after three sequential calls, want 1", n)
	}
}

// TestHopRefusedIsANodeFailure: a peer that does not upgrade — an HTTP
// server without the hop — fails the call the way an unreachable node does,
// so a sweep moves on; it is not mistaken for the daemon's refusal.
func TestHopRefusedIsANodeFailure(t *testing.T) {
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	t.Cleanup(plain.Close)
	_, err := NewClient(nil).Do(context.Background(), Request{Method: "GET", URL: plain.URL + "/x", Hop: true})
	if err == nil || !strings.Contains(err.Error(), "refused the funcdb-hop upgrade") || !Failover(err) {
		t.Fatalf("hop to a plain HTTP server: %v (failover %v)", err, Failover(err))
	}
}

// TestHopCancelReachesHandler: a caller that gives up closes its
// connection, and the daemon cancels the request it was serving on it.
func TestHopCancelReachesHandler(t *testing.T) {
	baseline := runtime.NumGoroutine()
	canceled := make(chan error, 1)
	ts := httptest.NewServer(ServeHop(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		canceled <- r.Context().Err()
	})))
	c := NewClient(nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Send(ctx, Request{Method: "POST", URL: ts.URL + "/slow", Hop: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Send past its deadline: %v", err)
	}
	select {
	case err := <-canceled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("handler context ended with %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the handler's context outlived the caller's")
	}
	c.Close()
	ts.Close()
	leakcheck.Settled(t, baseline)
}

// TestHopSlowRequestsKeepTheirContext: requests slow enough to have the
// daemon watch for a hang-up, one after another on one connection, each run
// under a live context: ending the watch is not a hang-up.
func TestHopSlowRequestsKeepTheirContext(t *testing.T) {
	ts := httptest.NewServer(ServeHop(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * hangUpAfter)
		if err := r.Context().Err(); err != nil {
			WriteError(w, Errorf(StatusClientClosedRequest, "canceled", "%v", err))
		}
	})))
	t.Cleanup(ts.Close)
	c := NewClient(nil)
	t.Cleanup(c.Close)
	for i := range 5 {
		if _, err := c.Do(context.Background(), Request{Method: "GET", URL: ts.URL + "/slow", Hop: true}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestHopShutdown: Shutdown closes idle connections at once, waits for a
// frame in flight and delivers its response, refuses new upgrades, and
// leaves no goroutine behind.
func TestHopShutdown(t *testing.T) {
	baseline := runtime.NumGoroutine()
	started, release := make(chan struct{}), make(chan struct{})
	hop := ServeHop(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(started)
			<-release
		}
		io.WriteString(w, r.URL.Path)
	}))
	ts := httptest.NewServer(hop)
	busy, idle := NewClient(nil), NewClient(nil)
	call := func(c *Client, path string) (string, error) {
		raw, err := c.Do(context.Background(), Request{Method: "GET", URL: ts.URL + path, Hop: true})
		return string(raw), err
	}
	if got, err := call(idle, "/fast"); got != "/fast" || err != nil {
		t.Fatalf("idle client's call: %q %v", got, err)
	}
	slow := make(chan string, 1)
	go func() {
		got, err := call(busy, "/slow")
		slow <- fmt.Sprint(got, err)
	}()
	// Both connections are up and the slow frame is being served, so
	// Shutdown cannot take its connection for an idle one.
	<-started
	for hop.active() < 2 {
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- hop.Shutdown(context.Background()) }()
	for hop.active() > 1 { // the idle connection goes at once
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v with a frame in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := call(idle, "/fast"); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("an upgrade during shutdown: %v, want the 503 refusal", err)
	}
	close(release)
	if got := <-slow; got != "/slow<nil>" {
		t.Fatalf("in-flight call across Shutdown: %s", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	busy.Close()
	idle.Close()
	ts.Close()
	leakcheck.Settled(t, baseline)
}

// active counts the connections s is serving.
func (s *Hop) active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// flatten renders h as encodeHopRequest's alternating pairs, in a fixed
// order.
func flatten(h http.Header) []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var kv []string
	for _, k := range keys {
		for _, v := range h[k] {
			kv = append(kv, k, v)
		}
	}
	return kv
}

// decodeAllocs runs decode once and returns the bytes it allocated.
func decodeAllocs(decode func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decode()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// decodeHopRequest parses a frame made by encodeHopRequest into a header of
// its own. The body aliases rec.
func decodeHopRequest(rec []byte) (method, uri string, h http.Header, body []byte, err error) {
	var hh hopHeader
	return hh.decodeRequest(rec)
}

// decodeHopResponse parses a frame made by encodeHopResponse into a header
// of its own. The body aliases rec.
func decodeHopResponse(rec []byte) (status int, h http.Header, body []byte, err error) {
	var hh hopHeader
	return hh.decodeResponse(rec)
}

// hopRequest and hopResponse encode one frame into an encoder of its own.
func hopRequest(method, uri string, hdr []string, body []byte) *wire.Encoder {
	e := new(wire.Encoder)
	encodeHopRequest(e, method, uri, hdr, nil, body)
	return e
}

func hopResponse(status int, h http.Header, body []byte) *wire.Encoder {
	e := new(wire.Encoder)
	encodeHopResponse(e, status, h, body)
	return e
}

// allocBound is what decoding one record may allocate: the strings it
// copies out, the header map of at most maxHopHeaders lines, and an error.
func allocBound(rec []byte) uint64 { return 2*uint64(len(rec)) + 16<<10 }

// FuzzHopRequest: a request frame either decodes or is refused as
// corrupt; what decodes survives a re-encode; and no frame, whatever its
// counts claim, makes the decoder allocate more than allocBound.
func FuzzHopRequest(f *testing.F) {
	f.Add(hopRequest("POST", "/v1/db/even/ask?x=1", []string{"Content-Type", ContentJSON, HeaderAPIKey, "k"}, []byte(`{"query":"?- Even(4)."}`)).Payload())
	f.Add(hopRequest("GET", "/v1/dbs", nil, nil).Payload())
	f.Add([]byte{hopRequestTag, 3, 'G', 'E', 'T', 1, '/', 0xff, 0xff, 0xff, 0x07})
	f.Add([]byte{hopRequestTag, 0, 0, 40, 0, 0})
	f.Fuzz(func(t *testing.T, rec []byte) {
		var method, uri string
		var h http.Header
		var body []byte
		var err error
		if n := decodeAllocs(func() { method, uri, h, body, err = decodeHopRequest(rec) }); n > allocBound(rec) {
			t.Fatalf("decoding %d bytes allocated %d", len(rec), n)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("refusal %v does not wrap ErrCorrupt", err)
			}
			return
		}
		m2, u2, h2, b2, err := decodeHopRequest(hopRequest(method, uri, flatten(h), body).Payload())
		if err != nil || m2 != method || u2 != uri || !reflect.DeepEqual(h2, h) || !bytes.Equal(b2, body) {
			t.Fatalf("re-encode of %x: %q %q %v %q, %v", rec, m2, u2, h2, b2, err)
		}
	})
}

// FuzzHopResponse is FuzzHopRequest for response frames.
func FuzzHopResponse(f *testing.F) {
	f.Add(hopResponse(200, http.Header{"Content-Type": {ContentJSON}, "X-Request-Id": {"r"}}, []byte(`{"answer":true}`)).Payload())
	f.Add(hopResponse(429, http.Header{"Retry-After": {"7"}, "X-Echo": {"a", "b"}}, nil).Payload())
	f.Add([]byte{hopResponseTag, 0xc8, 0x01, 0xff, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, rec []byte) {
		var status int
		var h http.Header
		var body []byte
		var err error
		if n := decodeAllocs(func() { status, h, body, err = decodeHopResponse(rec) }); n > allocBound(rec) {
			t.Fatalf("decoding %d bytes allocated %d", len(rec), n)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("refusal %v does not wrap ErrCorrupt", err)
			}
			return
		}
		s2, h2, b2, err := decodeHopResponse(hopResponse(status, h, body).Payload())
		if err != nil || s2 != status || !reflect.DeepEqual(h2, h) || !bytes.Equal(b2, body) {
			t.Fatalf("re-encode of %x: %d %v %q, %v", rec, s2, h2, b2, err)
		}
	})
}

// BenchmarkRoundTrip is one small request and response on loopback,
// through net/http's client and server and through the hop, to the same
// handler.
func BenchmarkRoundTrip(b *testing.B) {
	ts := httptest.NewServer(ServeHop(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", ContentJSON)
		io.WriteString(w, `{"answer":true,"version":1,"cached":true}`+"\n")
	})))
	defer ts.Close()
	c := NewClient(nil)
	defer c.Close()
	body := []byte(`{"query":"?- Even(4)."}`)
	for _, hop := range []bool{false, true} {
		b.Run(map[bool]string{false: "http", true: "hop"}[hop], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Do(context.Background(), Request{Method: "POST", URL: ts.URL + "/v1/db/even/ask",
					Body: body, ContentType: ContentJSON, Hop: hop}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// writeCounter is a net.Conn that counts its writes.
type writeCounter struct {
	net.Conn
	writes atomic.Int32
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestHopFrameIsOneWrite: a request frame and its response go out in one
// write each, header and payload together, however far past a
// bufio.Writer's 4 KiB buffer they run, so a reader never parks between
// the pieces of one frame.
func TestHopFrameIsOneWrite(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 12<<10)
	s := ServeHop(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(w, r.Body)
	}))
	cli, srv := net.Pipe()
	client, daemon := &writeCounter{Conn: cli}, &writeCounter{Conn: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serve(httptest.NewRequest("GET", HopPath, nil), &hopServerConn{nc: daemon}, bufio.NewReader(daemon))
	}()
	frame, err := hopRequest("POST", "/echo", nil, body).Record()
	if err != nil {
		t.Fatal(err)
	}
	hc := &hopConn{nc: client, br: bufio.NewReader(client)}
	rec, err := hc.roundTrip(frame)
	if err != nil {
		t.Fatal(err)
	}
	status, _, got, err := decodeHopResponse(rec)
	if err != nil || status != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("response %d, %d bytes, %v; want 200 and the %d bytes sent", status, len(got), err, len(body))
	}
	cli.Close()
	<-done
	if c, d := client.writes.Load(), daemon.writes.Load(); c != 1 || d != 1 {
		t.Errorf("a %d-byte request took %d writes and its response %d, want one each", len(frame), c, d)
	}
}
