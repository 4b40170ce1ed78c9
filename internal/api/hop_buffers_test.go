package api

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	c.hops[base] = []*hopConn{{nc: sc, br: bufio.NewReader(sc)}}
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
