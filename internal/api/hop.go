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
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/wire"
)

// The hop is how a router reaches fdbd. A client dials a daemon, upgrades
// the connection with GET /v1/hop (Upgrade: funcdb-hop), and from then on
// writes one request as one wire record and reads its response as the next:
// one request in flight per connection, written and read on the caller's
// goroutine. The daemon turns each frame back into an *http.Request and
// serves it with the same handler as its HTTP listener, so admission,
// deadlines, the pipeline and the recorder see a routed request exactly as
// they see a direct one. Streams (watch, replication) and every public
// client stay on HTTP.
const (
	// HopPath is the endpoint that upgrades a connection to the hop.
	HopPath = "/v1/hop"
	// HopProtocol is the Upgrade token the hop is negotiated under.
	HopProtocol = "funcdb-hop"

	hopRequestTag  byte = 'Q'
	hopResponseTag byte = 'R'
	// maxHopHeaders bounds the header lines in one frame: several times what
	// either side sends, and few enough that a hostile count cannot make the
	// decoder build a large map.
	maxHopHeaders = 64
	// maxIdleHops bounds the idle connections a client keeps per daemon.
	maxIdleHops = 64
	// maxKeptHopBuf bounds each buffer a hop keeps for its next frame — a
	// daemon connection's record, response body and response encoder, a
	// client's pooled request encoder — so that one large upload does not
	// pin its size on a connection: a frame that outgrows it is served in a
	// buffer of its own, dropped afterwards.
	maxKeptHopBuf = 64 << 10
	// hangUpAfter is how long a request runs before the daemon watches its
	// connection for a peer that hung up. A goroutine to watch costs a
	// fraction of a percent of a request this slow, and a request canceled
	// earlier runs at most this much longer.
	hangUpAfter = 5 * time.Millisecond
)

// encodeHopRequest renders one request frame into e: the method, the
// request-URI, the header lines as name/value pairs (hdr alternates them),
// and the body unprefixed.
func encodeHopRequest(e *wire.Encoder, method, uri string, hdr []string, body []byte) {
	size := len(method) + len(uri) + len(body) + 16
	for _, s := range hdr {
		size += len(s) + 2
	}
	e.Reset(hopRequestTag, size)
	e.Str(method)
	e.Str(uri)
	e.Int(len(hdr) / 2)
	for _, s := range hdr {
		e.Str(s)
	}
	e.Raw(body)
}

// decodeHopRequest parses a frame made by encodeHopRequest. The body
// aliases rec.
func decodeHopRequest(rec []byte) (method, uri string, h http.Header, body []byte, err error) {
	d := wire.NewDecoder(rec)
	if d.Byte() != hopRequestTag {
		d.Fail("not a hop request")
	}
	method, uri = d.Str(), d.Str()
	h = decodeHopHeader(d)
	body = d.Rest()
	if err := d.Err(); err != nil {
		return "", "", nil, nil, fmt.Errorf("hop request: %w", err)
	}
	return method, uri, h, body, nil
}

// encodeHopResponse renders one response frame into e: the status, the
// header lines, and the body unprefixed.
func encodeHopResponse(e *wire.Encoder, status int, h http.Header, body []byte) {
	size, n := len(body)+16, 0
	for k, vs := range h {
		for _, v := range vs {
			size += len(k) + len(v) + 4
			n++
		}
	}
	e.Reset(hopResponseTag, size)
	e.Int(status)
	e.Int(n)
	for k, vs := range h {
		for _, v := range vs {
			e.Str(k)
			e.Str(v)
		}
	}
	e.Raw(body)
}

// decodeHopResponse parses a frame made by encodeHopResponse. The body
// aliases rec.
func decodeHopResponse(rec []byte) (status int, h http.Header, body []byte, err error) {
	d := wire.NewDecoder(rec)
	if d.Byte() != hopResponseTag {
		d.Fail("not a hop response")
	}
	if status = d.Int(); status < 100 || status > 999 {
		d.Fail("status %d", status)
	}
	h = decodeHopHeader(d)
	body = d.Rest()
	if err := d.Err(); err != nil {
		return 0, nil, nil, fmt.Errorf("hop response: %w", err)
	}
	return status, h, body, nil
}

// decodeHopHeader reads a count and that many name/value pairs. A count
// that the bytes left cannot hold (a pair takes at least two) or past
// maxHopHeaders is refused before anything is allocated for it.
func decodeHopHeader(d *wire.Decoder) http.Header {
	n := d.Int()
	if d.Err() != nil {
		return nil
	}
	if n > maxHopHeaders || 2*n > d.Remaining() {
		d.Fail("%d header lines in %d bytes", n, d.Remaining())
		return nil
	}
	h := make(http.Header, n)
	vals := make([]string, n) // one slab for the usual single-valued lines
	for i := range n {
		k, v := http.CanonicalHeaderKey(d.Str()), d.Str()
		if d.Err() != nil {
			return nil
		}
		if old, ok := h[k]; ok {
			h[k] = append(old, v)
		} else {
			vals[i] = v
			h[k] = vals[i : i+1 : i+1]
		}
	}
	return h
}

// ---- the daemon side ----

// Hop serves the hop beside an HTTP handler; make one with ServeHop.
type Hop struct {
	h       http.Handler
	closing atomic.Bool
	wg      sync.WaitGroup // upgraded connections still being served

	mu    sync.Mutex
	conns map[*hopServerConn]struct{}
}

// hopServerConn is one upgraded connection on the daemon side. busy is set
// while a frame is being served; closed once Shutdown has closed it.
type hopServerConn struct {
	nc           net.Conn
	mu           sync.Mutex
	busy, closed bool

	// What each frame reuses, owned by the serving goroutine: the record the
	// request is read into, which the handler reads its body from; the
	// writer its response is buffered in; the encoder its response frame is
	// built in. Each is reused only once the frame before has been answered.
	rec []byte
	w   hopWriter
	enc wire.Encoder
}

// ServeHop returns h with the hop mounted on it: GET /v1/hop with
// Upgrade: funcdb-hop takes the connection over and serves every frame that
// arrives on it with h; any other request goes to h as is. A server that
// mounts it calls Shutdown after http.Server.Shutdown, which cannot see
// hijacked connections.
func ServeHop(h http.Handler) *Hop {
	return &Hop{h: h, conns: make(map[*hopServerConn]struct{})}
}

func (s *Hop) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != HopPath || r.Method != http.MethodGet || !strings.EqualFold(r.Header.Get("Upgrade"), HopProtocol) {
		s.h.ServeHTTP(w, r)
		return
	}
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		WriteError(w, Errorf(http.StatusServiceUnavailable, "shutting_down", "daemon is shutting down"))
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	nc, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		WriteError(w, Errorf(http.StatusInternalServerError, "internal", "hop upgrade: %v", err))
		return
	}
	c := &hopServerConn{nc: nc}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		nc.Close()
	}()
	if brw.Reader.Buffered() > 0 {
		return // a client sends nothing before the 101
	}
	nc.SetDeadline(time.Time{})
	brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + HopProtocol + "\r\n\r\n")
	if brw.Flush() != nil {
		return
	}
	// Read nc through a reader of our own: brw's reads go through net/http,
	// which cancels r's context on any read error, a deadline included.
	s.serve(r, c, bufio.NewReader(nc))
}

// serve answers the frames of one connection, on the connection's own
// goroutine, until the peer hangs up, a write fails or Shutdown ends it.
// Nothing reads the connection while a frame is served, so a peer that hangs
// up would go unnoticed; once a request has run for hangUpAfter, a timer
// puts a goroutine in a read, and a peer that hangs up — a router whose
// caller gave up — cancels the request it had in flight. (A goroutine always
// in the next read is simpler, but costs every frame a handoff: a serial
// routed ask was about 15 % slower with it, EXPERIMENTS.md A27.) A response
// frame goes out in one write, header and payload together, so the peer
// never waits on the rest of a frame it has begun to read.
func (s *Hop) serve(outer *http.Request, c *hopServerConn, br *bufio.Reader) {
	ctx, hangUp := context.WithCancel(outer.Context())
	defer hangUp()
	watched := make(chan struct{}, 1)
	watch := time.AfterFunc(time.Hour, func() {
		if _, err := br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			hangUp()
		}
		watched <- struct{}{}
	})
	watch.Stop()
	defer watch.Stop()
	for {
		rec, err := wire.ReadRecordInto(br, c.rec)
		if err != nil || !c.begin() {
			return // a frame read after Shutdown closed the connection as idle is dropped unserved
		}
		watch.Reset(hangUpAfter)
		frame, err := s.dispatch(ctx, outer, c, rec).Record()
		if !watch.Stop() {
			// The watcher is in its read (or done): end it before reading on.
			c.nc.SetReadDeadline(aLongTimeAgo)
			<-watched
			c.nc.SetReadDeadline(time.Time{})
		}
		if err == nil {
			_, err = c.nc.Write(frame)
		}
		c.keep(rec)
		if !c.end() || err != nil || s.closing.Load() {
			return
		}
	}
}

// keep holds on to the buffers of the frame just answered for the next one,
// those that stayed within maxKeptHopBuf. A record that outgrew the kept one
// was read into a buffer of its own, which is dropped here.
func (c *hopServerConn) keep(rec []byte) {
	if cap(rec) <= maxKeptHopBuf {
		c.rec = rec[:0]
	}
	if cap(c.w.body) > maxKeptHopBuf {
		c.w.body = nil
	}
	if c.enc.Cap() > maxKeptHopBuf {
		c.enc = wire.Encoder{}
	}
}

// dispatch serves one request frame with the wrapped handler and returns the
// response frame, built in c's encoder. A frame that does not decode is
// answered 400, and the connection stays usable: the record framing around
// it was sound.
func (s *Hop) dispatch(ctx context.Context, outer *http.Request, c *hopServerConn, rec []byte) *wire.Encoder {
	w := &c.w
	w.reset()
	method, uri, h, body, err := decodeHopRequest(rec)
	var u *url.URL
	if err == nil {
		u, err = url.ParseRequestURI(uri)
	}
	if err != nil {
		WriteError(w, Errorf(http.StatusBadRequest, "bad_request", "%v", err))
		return w.frame(&c.enc)
	}
	req := &http.Request{
		Method: method, URL: u, RequestURI: uri,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: http.NoBody,
		Host: outer.Host, RemoteAddr: outer.RemoteAddr,
	}
	if len(body) > 0 {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	s.h.ServeHTTP(w, req.WithContext(ctx))
	return w.frame(&c.enc)
}

func (c *hopServerConn) begin() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = !c.closed
	return c.busy
}

func (c *hopServerConn) end() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = false
	return !c.closed
}

// close closes the connection; with idleOnly, only if no frame is in
// flight on it.
func (c *hopServerConn) close(idleOnly bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !idleOnly || !c.busy {
		c.closed = true
		c.nc.Close()
	}
}

// Shutdown is http.Server.Shutdown for the hop: no more upgrades, idle
// connections closed at once, and every busy one closed as soon as its
// in-flight frame is answered. If ctx ends first, the rest are closed with
// their requests in flight, and Shutdown returns ctx's error.
func (s *Hop) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing.Store(true)
	for c := range s.conns {
		c.close(true)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for c := range s.conns {
		c.close(false)
	}
	s.mu.Unlock()
	return ctx.Err()
}

// hopWriter buffers one response for its frame. A connection keeps one and
// resets it for each frame: the header map is cleared, the body's storage
// kept.
type hopWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *hopWriter) Header() http.Header { return w.header }

func (w *hopWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *hopWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *hopWriter) reset() {
	if w.header == nil {
		w.header = make(http.Header)
	}
	clear(w.header)
	w.status = 0
	w.body = w.body[:0]
}

func (w *hopWriter) frame(e *wire.Encoder) *wire.Encoder {
	w.WriteHeader(http.StatusOK)
	encodeHopResponse(e, w.status, w.header, w.body)
	return e
}

// ---- the client side ----

// hopConn is one upgraded connection from a client to a daemon.
type hopConn struct {
	nc    net.Conn
	br    *bufio.Reader
	probe liveness // what hopAlive peeks through, made once at dial
}

// hopEncoders recycles the request encoders of every client: a frame is
// encoded into one, which goes back once the write of the frame has
// returned, and not at all when it grew past maxKeptHopBuf.
var hopEncoders = sync.Pool{New: func() any { return new(wire.Encoder) }}

// putHopEncoder hands a request encoder back to the pool. It is a variable
// so that a test can watch when encoders come back.
var putHopEncoder = func(e *wire.Encoder) {
	if e.Cap() <= maxKeptHopBuf {
		hopEncoders.Put(e)
	}
}

// aLongTimeAgo is the deadline that fails a blocked read or write at once.
var aLongTimeAgo = time.Unix(1, 0)

// exchange performs rq, whose header lines are hdr, as one frame over a
// pooled hop connection to its daemon; the response comes back whole. A
// pooled connection found dead before the frame is written is replaced by a
// new one. Once the frame is written a failure is returned, never replayed:
// the daemon may have applied it. A context that ends mid-exchange closes
// the connection, and with it, on the daemon, the request's context.
func (c *Client) exchange(ctx context.Context, rq Request, hdr []string) (*http.Response, error) {
	rest, ok := strings.CutPrefix(rq.URL, "http://")
	slash := strings.IndexByte(rest, '/')
	if !ok || slash <= 0 {
		return nil, fmt.Errorf("hop to %q: not an http URL with a path", rq.URL)
	}
	host, uri := rest[:slash], rest[slash:]
	base := rq.URL[:len(rq.URL)-len(uri)]
	e := hopEncoders.Get().(*wire.Encoder)
	encodeHopRequest(e, rq.Method, uri, hdr, rq.Body)
	frame, err := e.Record()
	var hc *hopConn
	if err == nil {
		hc, err = c.takeHop(ctx, base, host)
	}
	if err != nil {
		putHopEncoder(e)
		return nil, hopError(rq, err)
	}
	stop := context.AfterFunc(ctx, func() { hc.nc.SetDeadline(aLongTimeAgo) })
	rec, err := hc.roundTrip(frame)
	putHopEncoder(e) // the frame's write has returned, whatever ctx did
	var status int
	var h http.Header
	var body []byte
	if err == nil {
		status, h, body, err = decodeHopResponse(rec)
	}
	if !stop() {
		// The deadline fired, or is about to: this connection is done.
		hc.nc.Close()
		if err != nil {
			err = ctx.Err()
		}
	} else if err != nil {
		hc.nc.Close()
	} else {
		c.putHop(base, hc)
	}
	if err != nil {
		return nil, hopError(rq, err)
	}
	return &http.Response{
		Status: http.StatusText(status), StatusCode: status,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: h, Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)),
	}, nil
}

// hopError reads like the error an http.Client returns for the same call:
// Post "http://…": cause.
func hopError(rq Request, err error) error {
	return &url.Error{Op: rq.Method[:1] + strings.ToLower(rq.Method[1:]), URL: rq.URL, Err: err}
}

// roundTrip writes a request frame in one write, header and payload
// together — a bufio.Writer would split a frame past its buffer, and the
// daemon's reader could park between the pieces — and reads the response.
func (hc *hopConn) roundTrip(frame []byte) ([]byte, error) {
	if _, err := hc.nc.Write(frame); err != nil {
		return nil, err
	}
	return wire.ReadRecord(hc.br)
}

// takeHop returns an idle pooled connection to base that is still open, or
// dials a new one.
func (c *Client) takeHop(ctx context.Context, base, host string) (*hopConn, error) {
	for {
		c.hopMu.Lock()
		idle := c.hops[base]
		if len(idle) == 0 {
			c.hopMu.Unlock()
			return dialHop(ctx, host)
		}
		hc := idle[len(idle)-1]
		idle[len(idle)-1] = nil
		c.hops[base] = idle[:len(idle)-1]
		c.hopMu.Unlock()
		if hopAlive(hc) {
			return hc, nil
		}
		hc.nc.Close()
	}
}

// putHop returns a connection to base's idle pool, or closes it when the
// pool is full or the client closed.
func (c *Client) putHop(base string, hc *hopConn) {
	c.hopMu.Lock()
	if !c.closed && len(c.hops[base]) < maxIdleHops {
		c.hops[base] = append(c.hops[base], hc)
		hc = nil
	}
	c.hopMu.Unlock()
	if hc != nil {
		hc.nc.Close()
	}
}

// dialHop connects to host and upgrades the connection. A peer that does
// not answer 101 with the hop's token refused it; to a caller that is a node
// failure like any other transport error.
func dialHop(ctx context.Context, host string) (*hopConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { nc.SetDeadline(aLongTimeAgo) })
	hc := &hopConn{nc: nc, br: bufio.NewReader(nc)}
	hc.probe.init(nc)
	_, err = io.WriteString(nc, "GET "+HopPath+" HTTP/1.1\r\nHost: "+host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+HopProtocol+"\r\n\r\n")
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(hc.br, nil)
	}
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err == nil && (resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), HopProtocol)) {
		err = fmt.Errorf("%s refused the %s upgrade: %s", host, HopProtocol, resp.Status)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	return hc, nil
}

// Close closes the client's idle hop connections and stops pooling: a call
// made after Close still works, over a connection closed when it returns.
// Plain HTTP calls are unaffected.
func (c *Client) Close() {
	c.hopMu.Lock()
	c.closed = true
	hops := c.hops
	c.hops = nil
	c.hopMu.Unlock()
	for _, idle := range hops {
		for _, hc := range idle {
			hc.nc.Close()
		}
	}
}
