package api

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcdb/internal/obs"
	"funcdb/internal/wire"
)

// pipeHop serves the hop on one end of an in-memory connection, with the
// daemon-side state it builds up there, and returns the other end. Closing
// the client end ends the serve loop, after which wait returns the state.
func pipeHop(t *testing.T, h http.HandlerFunc) (client *hopConn, wait func() *hopServerConn) {
	cli, srv := net.Pipe()
	c := &hopServerConn{nc: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeHop(h).serve(httptest.NewRequest("GET", HopPath, nil), c, bufio.NewReader(srv))
	}()
	t.Cleanup(func() { cli.Close(); <-done })
	return &hopConn{nc: cli, br: bufio.NewReader(cli)}, func() *hopServerConn {
		cli.Close()
		<-done
		return c
	}
}

func echo(w http.ResponseWriter, r *http.Request) { io.Copy(w, r.Body) }

// echoed sends body as one request frame over hc and returns what came back.
func echoed(t *testing.T, hc *hopConn, body []byte) []byte {
	t.Helper()
	frame, err := hopRequest("POST", "/echo", nil, body).Record()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := hc.roundTrip(frame)
	if err != nil {
		t.Fatal(err)
	}
	status, _, got, err := decodeHopResponse(rec)
	if err != nil || status != http.StatusOK {
		t.Fatalf("response %d, %v", status, err)
	}
	return got
}

// TestHopLargeFrameNotKept: a frame past maxKeptHopBuf, and its response,
// are served whole, and the connection keeps none of their buffers: the
// frames after it are read and answered in buffers within the bound.
func TestHopLargeFrameNotKept(t *testing.T) {
	hc, wait := pipeHop(t, echo)
	small := []byte("a small body")
	large := bytes.Repeat([]byte("0123456789abcdef"), (maxKeptHopBuf+4096)/16)
	for _, body := range [][]byte{small, large, small} {
		if got := echoed(t, hc, body); !bytes.Equal(got, body) {
			t.Fatalf("a %d-byte body came back as %d bytes", len(body), len(got))
		}
	}
	c := wait()
	if cap(c.rec) == 0 {
		t.Error("the connection kept no record buffer")
	}
	if cap(c.rec) > maxKeptHopBuf || cap(c.w.body) > maxKeptHopBuf || c.enc.Cap() > maxKeptHopBuf {
		t.Errorf("after a %d-byte frame the connection keeps %d, %d and %d bytes, bound %d",
			len(large), cap(c.rec), cap(c.w.body), c.enc.Cap(), maxKeptHopBuf)
	}
}

// TestHopRecordHeldWhileServed: the body a handler reads is the
// connection's kept record, and nothing reads the next frame into it while
// the frame before is being served. A peer that sends two frames at once
// (no client of this module does) gets each body echoed back, though the
// handler reads its body only after the hang-up watcher has started.
func TestHopRecordHeldWhileServed(t *testing.T) {
	hc, _ := pipeHop(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(3 * hangUpAfter)
		echo(w, r)
	})
	first, second := []byte("the first body"), []byte("the other body")
	echoed(t, hc, first) // the connection now keeps a record this size
	var both []byte
	for _, body := range [][]byte{first, second} {
		frame, err := hopRequest("POST", "/echo", nil, body).Record()
		if err != nil {
			t.Fatal(err)
		}
		both = append(both, frame...)
	}
	hc.nc.SetDeadline(time.Now().Add(5 * time.Second))
	go hc.nc.Write(both)
	for _, want := range [][]byte{first, second} {
		rec, err := wire.ReadRecord(hc.br)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, got, err := decodeHopResponse(rec); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("echo %q, %v; want %q", got, err, want)
		}
	}
}

// stallConn is a hop connection whose write blocks until a deadline is set
// on it, and then takes a while longer to return, as a write the kernel is
// still copying would.
type stallConn struct {
	net.Conn // not used: only the methods below are called
	writing  atomic.Bool
	stop     chan struct{}
	once     sync.Once
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.writing.Store(true)
	defer c.writing.Store(false)
	<-c.stop
	time.Sleep(20 * time.Millisecond)
	return 0, os.ErrDeadlineExceeded
}

func (c *stallConn) Read([]byte) (int, error) {
	<-c.stop
	return 0, os.ErrDeadlineExceeded
}

func (c *stallConn) SetDeadline(time.Time) error {
	c.once.Do(func() { close(c.stop) })
	return nil
}

func (c *stallConn) Close() error { return c.SetDeadline(time.Time{}) }

// TestHopEncoderBackAfterWrite: a hop call whose context ends while its
// frame is being written fails, and hands its request encoder back to the
// pool only once the write has returned — never while the frame is still
// being read out of it.
func TestHopEncoderBackAfterWrite(t *testing.T) {
	c := NewClient(nil)
	defer c.Close()
	sc := &stallConn{stop: make(chan struct{})}
	const base = "http://stalled.invalid"
	c.hops[base] = []*hopConn{newHopConn(sc)}
	put := putHopEncoder
	defer func() { putHopEncoder = put }()
	var back, early atomic.Int32
	putHopEncoder = func(e *wire.Encoder) {
		if sc.writing.Load() {
			early.Add(1)
		}
		back.Add(1)
		put(e)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Send(ctx, Request{Method: "POST", URL: base + "/v1/db/even/ask", Body: []byte(`{"query":"?- Even(4)."}`), Hop: true})
	if err == nil {
		t.Fatal("a call whose context ended mid-write succeeded")
	}
	if back.Load() != 1 || early.Load() != 0 {
		t.Errorf("encoder handed back %d times, %d of them while its write was in flight; want once, after", back.Load(), early.Load())
	}
}

// TestHopAliveAllocatesNothing: checking a pooled connection before reuse
// peeks through what the dial kept, with no allocation per check.
func TestHopAliveAllocatesNothing(t *testing.T) {
	ts := httptest.NewServer(ServeHop(http.HandlerFunc(echo)))
	defer ts.Close()
	hc, err := dialHop(context.Background(), ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer hc.nc.Close()
	if !hopAlive(hc) {
		t.Fatal("a fresh connection reads as dead")
	}
	if n := testing.AllocsPerRun(100, func() { hopAlive(hc) }); n != 0 {
		t.Errorf("hopAlive allocates %.1f per check, want 0", n)
	}
}

// TestHopBodyAllocatesNothing: the daemon hands a frame's body to the handler
// through a reader its connection keeps, so serving a frame with a body
// allocates no more than serving one without.
func TestHopBodyAllocatesNothing(t *testing.T) {
	s := ServeHop(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.Copy(io.Discard, r.Body) }))
	c, outer := &hopServerConn{}, httptest.NewRequest("GET", HopPath, nil)
	allocs := func(body []byte) float64 {
		rec := hopRequest("POST", "/v1/db/x/ask", nil, body).Payload()
		return testing.AllocsPerRun(200, func() { s.dispatch(context.Background(), outer, c, rec) })
	}
	bare, with := allocs(nil), allocs([]byte(`{"query":"?- Even(4)."}`))
	if with > bare {
		t.Errorf("a frame with a body allocates %.1f, one without %.1f: want no more", with, bare)
	}
}

// hopHeaderSet is the header set a router's hop frame carries: the client's
// content type and tenant key, the shard-map version and a traceparent.
func hopHeaderSet() []string {
	return []string{"Content-Type", ContentJSON, HeaderAPIKey, "tenant-a", HeaderRouter, "v7",
		obs.TraceparentHeader, obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID())}
}

// hopDispatchAllocs bounds what the two ends of one hop exchange allocate
// of their own, serving a frame with the real header set through the
// request pipeline (recorder on, a deadline) to a handler that reads its
// body and answers as a cached ask does, and decoding the response as the
// router does: on the daemon the one string the frame's other strings are
// copied into, the request's URL (url.ParseRequestURI), the request's
// context, the request ID and the request the pipeline hands the handler; on
// the router the one string of the response's (EXPERIMENTS A46 has the count
// before).
const hopDispatchAllocs = 6

// TestHopDispatchAllocs gates the daemon's end of a routed hit: decoding
// the frame, rebuilding the request, the pipeline around the handler and
// encoding the response allocate at most hopDispatchAllocs, whatever the
// body's length — and the deadline's timer is never armed, since nothing
// here waits. The race build's sync.Pool drops a share of what is put back
// (pooled traces), so there the ceiling does not apply.
func TestHopDispatchAllocs(t *testing.T) {
	pipe := &Pipeline{Recorder: obs.NewRecorder(0, time.Hour, 1<<30), Log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	answer := []byte(`{"answer":true,"version":1,"cached":true}` + "\n")
	ct := []string{ContentJSON}
	s := ServeHop(pipe.Wrap("ask", time.Minute, func(w http.ResponseWriter, r *http.Request) error {
		if body, ok := HeldBody(r); !ok || len(body) == 0 {
			return Errorf(http.StatusBadRequest, "bad_request", "no held body")
		}
		if c := r.Context().(*request); c.timed.Load() != nil {
			return Errorf(http.StatusInternalServerError, "internal", "deadline armed on a hit")
		}
		w.Header()["Content-Type"] = ct
		w.Write(answer)
		return nil
	}))
	c, outer := &hopServerConn{}, httptest.NewRequest("GET", HopPath, nil)
	for _, size := range []int{16, 4096} {
		body := []byte(`{"query":"` + strings.Repeat("x", size) + `"}`)
		rec := hopRequest("POST", "/v1/db/sub/ask", hopHeaderSet(), body).Payload()
		var status int
		var resp hopHeader // the router's, kept per connection
		allocs := testing.AllocsPerRun(200, func() {
			status, _, _, _ = resp.decodeResponse(s.dispatch(context.Background(), outer, c, rec).Payload())
		})
		if status != http.StatusOK {
			t.Fatalf("body %d: status %d", size, status)
		}
		t.Logf("body %d B: %.0f allocations per frame", len(body), allocs)
		if !raceBuild && allocs > hopDispatchAllocs {
			t.Errorf("body %d B: %.0f allocations per frame, ceiling %d", len(body), allocs, hopDispatchAllocs)
		}
	}
}

// TestHopResponseHeldUntilRelayed: a hop response Forward lends lives in its
// connection's storage, and the connection goes back to the pool only once
// the relay has returned. A call made from inside the relay, before the first
// response is read, takes another connection, and both bodies read as sent.
func TestHopResponseHeldUntilRelayed(t *testing.T) {
	ts := httptest.NewServer(ServeHop(http.HandlerFunc(echo)))
	defer ts.Close()
	c := NewClient(nil)
	defer c.Close()
	forward := func(body string, fn func(*http.Response) error) {
		t.Helper()
		if err := c.Forward(context.Background(), Request{Method: "POST", URL: ts.URL + "/echo", Body: []byte(body), Hop: true}, fn); err != nil {
			t.Fatal(err)
		}
	}
	readAs := func(want string) func(*http.Response) error {
		return func(resp *http.Response) error {
			if got, _ := io.ReadAll(resp.Body); string(got) != want {
				t.Errorf("a relayed response read %q, want %q", got, want)
			}
			return nil
		}
	}
	forward("warm up the pool", readAs("warm up the pool"))
	forward("the first body", func(resp *http.Response) error {
		forward("the other body", readAs("the other body"))
		return readAs("the first body")(resp)
	})
	if n := len(c.hops[ts.URL]); n != 2 {
		t.Errorf("%d idle connections after a call made inside another's relay, want 2", n)
	}
}

// TestHopSendResponseIsOwned: the response Send returns for a hop call is
// the caller's own, not the connection's: closed twice, and read after the
// connection has served other calls, it still reads as sent, and the other
// calls' responses read as theirs.
func TestHopSendResponseIsOwned(t *testing.T) {
	ts := httptest.NewServer(ServeHop(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Echo", r.URL.Query().Get("v"))
		echo(w, r)
	})))
	defer ts.Close()
	c := NewClient(nil)
	defer c.Close()
	send := func(v string) *http.Response {
		t.Helper()
		resp, err := c.Send(context.Background(), Request{Method: "POST", URL: ts.URL + "/echo?v=" + v, Body: []byte(v), Hop: true})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := send("first")
	first.Body.Close()
	first.Body.Close()
	second, third := send("second"), send("third")
	for _, rc := range []struct {
		resp *http.Response
		want string
	}{{first, "first"}, {second, "second"}, {third, "third"}} {
		got, _ := io.ReadAll(rc.resp.Body)
		rc.resp.Body.Close()
		if string(got) != rc.want || rc.resp.Header.Get("X-Echo") != rc.want {
			t.Errorf("a response read after other calls came back %q with X-Echo %q, want %q", got, rc.resp.Header.Get("X-Echo"), rc.want)
		}
	}
	if n := len(c.hops[ts.URL]); n != 1 {
		t.Errorf("%d idle connections after calls one at a time, want 1", n)
	}
}

// TestHopRefusalsRaceNothing: calls over the hop from many goroutines, half
// of them refused 429 with a Retry-After of their own, each come back as
// sent — every refusal's status, code and Retry-After its own — while
// connections pass between the goroutines through the pool. Under -race it
// also shows that no refusal is read while another call reuses its
// connection.
func TestHopRefusalsRaceNothing(t *testing.T) {
	ts := httptest.NewServer(ServeHop(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if secs, shed := strings.CutPrefix(string(body), "shed "); shed {
			n, _ := strconv.Atoi(secs)
			WriteError(w, Errorf(http.StatusTooManyRequests, "rate_limited", "shed %d", n).WithRetryAfter(n))
			return
		}
		w.Write(body)
	})))
	defer ts.Close()
	c := NewClient(nil)
	defer c.Close()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				n := 1 + (g*100+i)%97
				if i%2 == 0 {
					want := "ok " + strconv.Itoa(n)
					got, err := c.Do(context.Background(), Request{Method: "POST", URL: ts.URL + "/x", Body: []byte(want), Hop: true})
					if err != nil || string(got) != want {
						t.Errorf("a call came back %q, %v; want %q", got, err, want)
					}
					continue
				}
				_, err := c.Do(context.Background(), Request{Method: "POST", URL: ts.URL + "/x", Body: []byte("shed " + strconv.Itoa(n)), Hop: true})
				var e *Error
				if !errors.As(err, &e) || e.Status != http.StatusTooManyRequests || e.Code != "rate_limited" ||
					e.RetryAfter != n || e.Message != "shed "+strconv.Itoa(n) {
					t.Errorf("a refusal with Retry-After %d came back %#v (%v)", n, e, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestHopHeaderSlicesHaveNoRoom: every header value a hop decodes — a
// shared one of the table or one in the connection's slab — is a slice
// without spare capacity, so a handler that appends to one copies it: the
// frame's other values, the table and the next frame read as sent.
func TestHopHeaderSlicesHaveNoRoom(t *testing.T) {
	var hh hopHeader
	lines := []string{"Content-Type", ContentJSON, "X-One", "1st", "X-Two", "2nd", "Retry-After", "1", "X-Three", "3rd"}
	rec := hopRequest("POST", "/v1/db/x/ask", lines, nil).Payload()
	for range 2 {
		_, _, h, _, err := hh.decodeRequest(rec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(lines); i += 2 {
			h[lines[i]] = append(h[lines[i]], "appended")
		}
		for i := 0; i < len(lines); i += 2 {
			if got := h[lines[i]]; len(got) != 2 || got[0] != lines[i+1] {
				t.Fatalf("%s reads %q after every value had one appended, want [%s appended]", lines[i], got, lines[i+1])
			}
		}
	}
	for _, vs := range hopValues {
		if len(vs) != 1 || cap(vs) != 1 {
			t.Errorf("shared value slice %q has length %d, capacity %d", vs, len(vs), cap(vs))
		}
	}
}

// TestSetHeaderSlotsHaveNoRoom: a header value set in one of the request's
// slots is a slice without spare capacity, so an Add to it copies it and
// the next slot's header reads as set.
func TestSetHeaderSlotsHaveNoRoom(t *testing.T) {
	var in Info
	h := http.Header{}
	in.SetHeader(h, "X-One", "1st")
	h.Add("X-One", "appended")
	in.SetHeader(h, "X-Two", "2nd")
	in.SetHeader(h, "X-Three", "3rd")
	h.Add("X-Two", "appended")
	if !slices.Equal(h["X-One"], []string{"1st", "appended"}) || !slices.Equal(h["X-Two"], []string{"2nd", "appended"}) ||
		!slices.Equal(h["X-Three"], []string{"3rd"}) {
		t.Errorf("after Adds the headers read %v", h)
	}
}

// TestRequestDeadlineIsLazy: a request's deadline answers Deadline and Err
// without a timer; the timer is armed by Done, which then closes at the
// deadline; and contexts derived from a request's start no goroutine to
// watch it.
func TestRequestDeadlineIsLazy(t *testing.T) {
	pipe := &Pipeline{Log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	pipe.Wrap("ask", 30*time.Millisecond, func(w http.ResponseWriter, r *http.Request) error {
		ctx := r.Context()
		c := ctx.(*request)
		if d, ok := ctx.Deadline(); !ok || d.Sub(InfoFrom(ctx).Start) != 30*time.Millisecond {
			t.Errorf("deadline %v, %v", d, ok)
		}
		if ctx.Err() != nil || c.timed.Load() != nil {
			t.Fatal("a fresh request is done, or armed its timer to say it is not")
		}
		before := runtime.NumGoroutine()
		var cancels []context.CancelFunc
		for range 50 {
			_, cancel := context.WithCancel(ctx)
			cancels = append(cancels, cancel)
		}
		// A watcher per derived context would be 50 more; other tests'
		// stragglers may come and go meanwhile.
		if n := runtime.NumGoroutine() - before; n >= len(cancels)/2 {
			t.Errorf("50 derived contexts started %d goroutines", n)
		}
		for _, cancel := range cancels {
			cancel()
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("Done never closed at the deadline")
		}
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			t.Errorf("Err after the deadline: %v", ctx.Err())
		}
		return nil
	})(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}
