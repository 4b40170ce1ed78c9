package watch

import (
	"context"
	"errors"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/obs"
	"funcdb/internal/query"
	"funcdb/internal/registry"
)

func newHub(t *testing.T, opts Options) (*registry.Registry, *Hub) {
	t.Helper()
	reg := registry.New(core.Options{})
	opts.Reg = reg
	h := NewHub(opts)
	t.Cleanup(h.Close)
	reg.SetNotifier(h.Notify)
	return reg, h
}

func mustPut(t *testing.T, reg *registry.Registry, name, src string) {
	t.Helper()
	if _, err := reg.PutProgram(name, []byte(src)); err != nil {
		t.Fatalf("PutProgram(%q): %v", name, err)
	}
}

func mustExtend(t *testing.T, reg *registry.Registry, name, facts string) {
	t.Helper()
	if _, err := reg.ExtendFacts(name, []byte(facts)); err != nil {
		t.Fatalf("ExtendFacts(%q, %q): %v", name, facts, err)
	}
}

// nextFrame waits for one frame, failing the test if the stream closes or
// stalls instead.
func nextFrame(t *testing.T, st *Stream) Frame {
	t.Helper()
	select {
	case f := <-st.Frames():
		return f
	case <-st.Closed():
		t.Fatalf("stream closed (reason %q, err %v) while waiting for a frame", st.Reason(), st.Err())
	case <-time.After(5 * time.Second):
		t.Fatal("no frame within 5s")
	}
	panic("unreachable")
}

func args(tuples []query.Tuple) []string {
	var out []string
	for _, tu := range tuples {
		out = append(out, tu.String())
	}
	return out
}

func wantArgs(t *testing.T, tuples []query.Tuple, want ...string) {
	t.Helper()
	got := args(tuples)
	if len(got) != len(want) {
		t.Fatalf("tuples = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tuples = %v, want %v", got, want)
		}
	}
}

func TestUniformQueryDeltas(t *testing.T) {
	reg, h := newHub(t, Options{})
	mustPut(t, reg, "seen", "Seen(a).")
	st, err := h.Subscribe(context.Background(), "seen", "?- Seen(X).", 0, 0, "")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if !st.Uniform {
		t.Fatal("?- Seen(X). classified non-uniform")
	}
	init := nextFrame(t, st)
	if init.Type != FrameInit || init.Truncated {
		t.Fatalf("first frame = %+v, want complete init", init)
	}
	wantArgs(t, init.Add, "(a)")

	mustExtend(t, reg, "seen", "Seen(b).")
	delta := nextFrame(t, st)
	if delta.Type != FrameDelta {
		t.Fatalf("frame after extend = %+v, want delta", delta)
	}
	wantArgs(t, delta.Add, "(b)")
	if len(delta.Del) != 0 {
		t.Fatalf("delta.Del = %v, want empty", args(delta.Del))
	}
	if delta.Version == 0 {
		t.Fatal("delta frame missing version tag")
	}

	// A bump that does not move the answer set is suppressed entirely: the
	// duplicate fact below bumps the version, then the c extend must arrive
	// as the very next frame with no empty delta in between.
	mustExtend(t, reg, "seen", "Seen(b).")
	mustExtend(t, reg, "seen", "Seen(c).")
	next := nextFrame(t, st)
	if next.Type != FrameDelta {
		t.Fatalf("frame after duplicate+new extend = %+v, want delta", next)
	}
	wantArgs(t, next.Add, "(c)")
}

func TestNonUniformQueryResyncs(t *testing.T) {
	reg, h := newHub(t, Options{})
	mustPut(t, reg, "even", "Even(0).\nEven(T) -> Even(T+2).\nSeen(a).")
	st, err := h.Subscribe(context.Background(), "even", "?- Even(T+2).", 8, 0, "")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if st.Uniform {
		t.Fatal("?- Even(T+2). classified uniform")
	}
	init := nextFrame(t, st)
	if init.Type != FrameInit {
		t.Fatalf("first frame = %+v, want init", init)
	}
	if len(init.Add) == 0 {
		t.Fatal("init frame carries no answers")
	}

	mustExtend(t, reg, "even", "Seen(b).")
	f := nextFrame(t, st)
	if f.Type != FrameResync || f.Reason != ReasonNonUniform {
		t.Fatalf("frame after extend = %+v, want resync (%s)", f, ReasonNonUniform)
	}
	if len(f.Add) != len(init.Add) {
		t.Fatalf("resync set has %d answers, init had %d", len(f.Add), len(init.Add))
	}
	if h.Counters()["resyncs_total"] == 0 {
		t.Fatal("resyncs_total counter not bumped")
	}
}

func TestTruncatedEnumerationResyncs(t *testing.T) {
	reg, h := newHub(t, Options{})
	mustPut(t, reg, "seen", "Seen(a).\nSeen(b).\nSeen(c).")
	st, err := h.Subscribe(context.Background(), "seen", "?- Seen(X).", 0, 2, "")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	init := nextFrame(t, st)
	if init.Type != FrameInit || !init.Truncated {
		t.Fatalf("first frame = %+v, want truncated init", init)
	}
	if len(init.Add) != 2 {
		t.Fatalf("truncated init has %d answers, want 2", len(init.Add))
	}

	mustExtend(t, reg, "seen", "Seen(d).")
	f := nextFrame(t, st)
	if f.Type != FrameResync || f.Reason != ReasonTruncated || !f.Truncated {
		t.Fatalf("frame after extend = %+v, want truncated resync (%s)", f, ReasonTruncated)
	}
}

func TestDatabaseRemovalClosesStreams(t *testing.T) {
	reg, h := newHub(t, Options{})
	mustPut(t, reg, "seen", "Seen(a).")
	st, err := h.Subscribe(context.Background(), "seen", "?- Seen(X).", 0, 0, "")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	nextFrame(t, st)
	if _, err := reg.Remove("seen"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	select {
	case <-st.Closed():
	case <-time.After(5 * time.Second):
		t.Fatal("stream not closed within 5s of database removal")
	}
	if st.Reason() != ReasonDeleted {
		t.Fatalf("close reason = %q, want %q", st.Reason(), ReasonDeleted)
	}
	if !errors.Is(st.Err(), registry.ErrNotFound) {
		t.Fatalf("close err = %v, want ErrNotFound", st.Err())
	}
}

func TestStreamCaps(t *testing.T) {
	reg, h := newHub(t, Options{MaxStreams: 2, MaxStreamsPerDB: 2})
	mustPut(t, reg, "seen", "Seen(a).")
	for i := 0; i < 2; i++ {
		if _, err := h.Subscribe(context.Background(), "seen", "?- Seen(X).", 0, 0, ""); err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
	}
	if _, err := h.Subscribe(context.Background(), "seen", "?- Seen(X).", 0, 0, ""); !errors.Is(err, ErrTooManyStreams) {
		t.Fatalf("third Subscribe err = %v, want ErrTooManyStreams", err)
	}
	if got := h.Streams(); got != 2 {
		t.Fatalf("Streams() = %d, want 2", got)
	}
}

func TestSubscribeErrors(t *testing.T) {
	reg, h := newHub(t, Options{})
	if _, err := h.Subscribe(context.Background(), "nope", "?- Seen(X).", 0, 0, ""); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("unknown db err = %v, want ErrNotFound", err)
	}
	mustPut(t, reg, "seen", "Seen(a).")
	if _, err := h.Subscribe(context.Background(), "seen", "?- Seen(", 0, 0, ""); err == nil {
		t.Fatal("Subscribe accepted an unparsable query")
	}
}

func TestSubscribeAfterClose(t *testing.T) {
	reg := registry.New(core.Options{})
	h := NewHub(Options{Reg: reg})
	reg.SetNotifier(h.Notify)
	if _, err := reg.PutProgram("seen", []byte("Seen(a).")); err != nil {
		t.Fatal(err)
	}
	h.Close()
	if _, err := h.Subscribe(context.Background(), "seen", "?- Seen(X).", 0, 0, ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close err = %v, want ErrClosed", err)
	}
}

func TestUnsubscribeStopsFrames(t *testing.T) {
	reg, h := newHub(t, Options{})
	mustPut(t, reg, "seen", "Seen(a).")
	st, err := h.Subscribe(context.Background(), "seen", "?- Seen(X).", 0, 0, "")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	nextFrame(t, st)
	h.Unsubscribe(st)
	<-st.Closed()
	mustExtend(t, reg, "seen", "Seen(b).")
	select {
	case f, ok := <-st.Frames():
		if ok {
			t.Fatalf("frame %+v after Unsubscribe", f)
		}
	case <-time.After(100 * time.Millisecond):
	}
	if got := h.Streams(); got != 0 {
		t.Fatalf("Streams() = %d after Unsubscribe, want 0", got)
	}
}

// TestSlowConsumerDisconnect drives more frames than the queue can hold
// into a subscriber that never reads, and checks the hub cuts the stream
// instead of buffering: memory stays bounded at QueueLen frames.
func TestSlowConsumerDisconnect(t *testing.T) {
	reg, h := newHub(t, Options{QueueLen: 1})
	mustPut(t, reg, "seen", "Seen(c0).")
	st, err := h.Subscribe(context.Background(), "seen", "?- Seen(X).", 0, 0, "")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// Never read st.Frames(): the init frame fills the queue, so the first
	// delta that finds it full must end the stream.
	deadline := time.Now().Add(5 * time.Second)
	for i := 1; ; i++ {
		select {
		case <-st.Closed():
			if st.Reason() != ReasonSlowConsumer {
				t.Fatalf("close reason = %q, want %q", st.Reason(), ReasonSlowConsumer)
			}
			if h.Counters()["slow_consumer_disconnects_total"] == 0 {
				t.Fatal("slow_consumer_disconnects_total not bumped")
			}
			if n := len(st.Frames()); n > 1 {
				t.Fatalf("%d frames buffered, queue bound is 1", n)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("stream not cut within 5s")
		}
		mustExtend(t, reg, "seen", "Seen(c"+string(rune('0'+i%10))+string(rune('0'+(i/10)%10))+").")
		time.Sleep(time.Millisecond)
	}
}

func TestHubCloseEndsStreams(t *testing.T) {
	reg := registry.New(core.Options{})
	h := NewHub(Options{Reg: reg})
	reg.SetNotifier(h.Notify)
	if _, err := reg.PutProgram("seen", []byte("Seen(a).")); err != nil {
		t.Fatal(err)
	}
	st, err := h.Subscribe(context.Background(), "seen", "?- Seen(X).", 0, 0, "")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	nextFrame(t, st)
	h.Close()
	select {
	case <-st.Closed():
	case <-time.After(5 * time.Second):
		t.Fatal("stream not closed by hub Close")
	}
	if st.Reason() != ReasonClosed {
		t.Fatalf("close reason = %q, want %q", st.Reason(), ReasonClosed)
	}
}

// TestStreamsShareOneAnswerSpecification: eight streams on one query shape
// evaluate through one plan, so a version bump costs one build of the
// answer specification — the first stream's — and seven reads of it.
func TestStreamsShareOneAnswerSpecification(t *testing.T) {
	reg, h := newHub(t, Options{})
	mustPut(t, reg, "even", "Even(0).\nEven(T) -> Even(T+2).\nSeen(a).")
	builds := func() int64 { return obs.EngineSink().Counters()["answer_spec_builds_total"] }
	var streams []*Stream
	for i := 0; i < 8; i++ {
		// Spelling variants of one shape, uniform and not.
		src := "?- Even(T+2)."
		if i%2 == 1 {
			src = "?-  Even( U+2 )."
		}
		st, err := h.Subscribe(context.Background(), "even", src, 8, 0, "")
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		streams = append(streams, st)
	}
	for _, st := range streams {
		if f := nextFrame(t, st); f.Type != FrameInit || len(f.Add) == 0 {
			t.Fatalf("first frame = %+v, want init with answers", f)
		}
	}
	before := builds()
	mustExtend(t, reg, "even", "Even(3).")
	for _, st := range streams {
		if f := nextFrame(t, st); f.Type != FrameResync || len(f.Add) == 0 {
			t.Fatalf("frame after extend = %+v, want resync with answers", f)
		}
	}
	if n := builds() - before; n != 1 {
		t.Errorf("%d answer specifications built for one version bump under 8 streams, want 1", n)
	}
}
