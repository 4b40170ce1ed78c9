package obs

import (
	"fmt"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, pid := NewTraceID(), NewSpanID()
	v := FormatTraceparent(tid, pid)
	gotT, gotP, ok := ParseTraceparent(v)
	if !ok || gotT != tid || gotP != pid {
		t.Fatalf("round trip %q: got (%q, %q, %v)", v, gotT, gotP, ok)
	}
	bad := []string{
		"",
		"00-" + tid + "-" + pid,         // missing flags
		"00-" + tid + "-" + pid + "-0",  // short flags
		"0-" + tid + "-" + pid + "-01",  // short version
		"ff-" + tid + "-" + pid + "-01", // forbidden version
		"00-" + tid[:31] + "-" + pid + "-01",
		"00-" + strings.Repeat("0", 32) + "-" + pid + "-01", // all-zero trace
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01", // all-zero parent
		"00-" + strings.ToUpper(tid) + "-" + pid + "-01",    // uppercase hex
	}
	for _, v := range bad {
		if _, _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted", v)
		}
	}
	// Unknown (but not 0xff) versions with the right shape are accepted.
	if _, _, ok := ParseTraceparent("01-" + tid + "-" + pid + "-01"); !ok {
		t.Error("version 01 rejected")
	}
}

func TestNewTraceWithAdoption(t *testing.T) {
	id := NewTraceID()
	if got := NewTraceWith(id).ID(); got != id {
		t.Fatalf("valid ID not adopted: %q != %q", got, id)
	}
	if got := NewTraceWith("nonsense").ID(); !ValidTraceID(got) || got == "nonsense" {
		t.Fatalf("invalid ID should mint fresh, got %q", got)
	}
}

func TestInjectTraceparent(t *testing.T) {
	tr := NewTrace()
	ctx := WithTrace(t.Context(), tr)
	// At the root there is no enclosing span; the placeholder parent is used.
	if got := Traceparent(ctx); got != FormatTraceparent(tr.ID(), "000000000000cafe") {
		t.Fatalf("root inject: %q", got)
	}
	sctx, sp := StartSpan(ctx, "forward")
	defer sp.End()
	got := Traceparent(sctx)
	_, pid, ok := ParseTraceparent(got)
	if !ok || pid != fmt.Sprintf("%016x", CurrentSpanID(sctx)) {
		t.Fatalf("span inject: %q (want parent %d)", got, CurrentSpanID(sctx))
	}
	// No trace in ctx: no header.
	if got := Traceparent(t.Context()); got != "" {
		t.Fatalf("inject without trace rendered %q", got)
	}
}

func TestGraftReport(t *testing.T) {
	parent := &Report{Spans: []Span{
		{ID: 1, Name: "route", StartUS: 0, DurUS: 100},
		{ID: 2, Parent: 1, Name: "forward", StartUS: 10, DurUS: 80},
	}, Counters: map[string]int64{"router_failovers": 1}}
	child := &Report{Spans: []Span{
		{ID: 1, Name: "handle", StartUS: 0, DurUS: 60},
		{ID: 2, Parent: 1, Name: "parse", StartUS: 5, DurUS: 10},
	}, Counters: map[string]int64{"algoq_steps": 7}, DroppedSpans: 3}
	GraftReport(parent, 2, child)
	if len(parent.Spans) != 4 {
		t.Fatalf("spans = %d", len(parent.Spans))
	}
	// Child IDs renumbered past the parent's max (2); roots re-parented onto
	// the graft span; clocks shifted by the graft span's start.
	got := parent.Spans[2]
	if got.ID != 3 || got.Parent != 2 || got.StartUS != 10 || got.Name != "handle" {
		t.Fatalf("grafted root = %+v", got)
	}
	got = parent.Spans[3]
	if got.ID != 4 || got.Parent != 3 || got.StartUS != 15 || got.Name != "parse" {
		t.Fatalf("grafted leaf = %+v", got)
	}
	if parent.Counters["algoq_steps"] != 7 || parent.Counters["router_failovers"] != 1 {
		t.Fatalf("counters = %v", parent.Counters)
	}
	if parent.DroppedSpans != 3 {
		t.Fatalf("dropped = %d", parent.DroppedSpans)
	}
}

func TestOutcomeForStatus(t *testing.T) {
	cases := []struct {
		status  int
		code    string
		outcome string
	}{
		{200, "", OutcomeOK},
		{0, "", OutcomeOK},
		{400, "bad_request", OutcomeError},
		{422, "budget_exceeded", OutcomeBudgetKill},
		{422, "depth_budget_exceeded", OutcomeBudgetKill},
		{429, "rate_limited", OutcomeShed},
		{503, "overloaded", OutcomeShed},
		{429, "", OutcomeShed},
		{503, "", OutcomeShed},
		{500, "internal", OutcomeError},
	}
	for _, c := range cases {
		if got := OutcomeForStatus(c.status, c.code); got != c.outcome {
			t.Errorf("OutcomeForStatus(%d, %q) = %q, want %q", c.status, c.code, got, c.outcome)
		}
	}
}

func TestRecorderRetention(t *testing.T) {
	rec := NewRecorder(16, 100*time.Millisecond, 4)

	entry := func(id, outcome string, durUS int64, keep bool) TraceEntry {
		return TraceEntry{ID: id, TimeUnixMS: time.Now().UnixMilli(),
			DurUS: durUS, Endpoint: "ask", Outcome: outcome, Keep: keep}
	}
	tr := NewTrace()
	_, sp := StartSpan(WithTrace(t.Context(), tr), "parse")
	sp.End()

	rec.Offer(entry("err1", OutcomeError, 10, false), tr)
	rec.Offer(entry("kill1", OutcomeBudgetKill, 10, false), tr)
	rec.Offer(entry("slow1", OutcomeOK, 200_000, false), tr) // past slow threshold
	rec.Offer(entry("keep1", OutcomeOK, 10, true), tr)       // client asked for a trace
	for i := 0; i < 8; i++ {
		rec.Offer(entry(fmt.Sprintf("ok%d", i), OutcomeOK, 10, false), tr)
	}

	byID := map[string]*TraceEntry{}
	for _, e := range rec.List(100) {
		byID[e.ID] = e
		if e.Report != nil {
			t.Errorf("List entry %s carries a report", e.ID)
		}
	}
	for _, id := range []string{"err1", "kill1", "slow1", "keep1"} {
		if byID[id] == nil {
			t.Fatalf("%s not retained (got %v)", id, byID)
		}
	}
	if byID["slow1"].Outcome != OutcomeSlow {
		t.Fatalf("slow entry outcome = %q", byID["slow1"].Outcome)
	}
	// 1-in-4 sampling kept some but not all of the 8 unremarkable entries.
	sampled := 0
	for i := 0; i < 8; i++ {
		if byID[fmt.Sprintf("ok%d", i)] != nil {
			sampled++
		}
	}
	if sampled == 0 || sampled == 8 {
		t.Fatalf("sampled %d of 8 ok entries, want strictly between", sampled)
	}

	got := rec.Get("err1")
	if got == nil || got.Report == nil || len(got.Report.Spans) == 0 {
		t.Fatalf("Get(err1) = %+v", got)
	}
	if rec.Get("never-offered") != nil {
		t.Fatal("Get of unknown ID returned an entry")
	}

	// A nil recorder is a no-op everywhere.
	var nilRec *Recorder
	nilRec.Offer(entry("x", OutcomeError, 1, false), nil)
	if nilRec.List(10) != nil || nilRec.Get("x") != nil {
		t.Fatal("nil recorder retained something")
	}
}

// TestRecorderConcurrent drives concurrent writers against concurrent
// /debug/traces-style scrapes; run under -race this checks the lock-free
// ring's publication safety.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder(32, time.Second, 2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr := NewTrace()
				_, sp := StartSpan(WithTrace(t.Context(), tr), "work")
				sp.End()
				outcome := OutcomeOK
				if i%3 == 0 {
					outcome = OutcomeError
				}
				rec.Offer(TraceEntry{ID: tr.ID(), TimeUnixMS: int64(i),
					Endpoint: "ask", Outcome: outcome}, tr)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		for _, e := range rec.List(50) {
			if e.ID == "" {
				t.Error("torn entry: empty ID")
			}
			rec.Get(e.ID)
		}
	}
	if rec.offered.Load() != 2000 || rec.retained.Load() == 0 {
		t.Fatalf("offered %d retained %d", rec.offered.Load(), rec.retained.Load())
	}
}

// TestKeptTraceKeepsItsSpans: pooled traces go back to the pool only when
// the recorder drops their entries. Four writers offer pooled traces, each
// with a span named for its request, a third of them errors (kept) and a
// share of the rest sampled; a reader fetches kept entries meanwhile. Every
// entry the recorder keeps still reports its own ID and span once the
// writers have recycled every trace they were allowed to.
func TestKeptTraceKeepsItsSpans(t *testing.T) {
	rec := NewRecorder(4096, time.Hour, 4)
	const writers, each = 4, 300
	var ids [writers][each]string
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				tr := AcquireTrace("")
				ctx := WithTrace(t.Context(), tr)
				_, sp := StartSpan(ctx, fmt.Sprintf("req-%d-%d", w, i))
				Add(ctx, "steps", int64(i+1))
				sp.End()
				outcome := OutcomeOK
				if i%3 == 0 {
					outcome = OutcomeError
				}
				ids[w][i] = tr.ID()
				rec.Offer(TraceEntry{ID: ids[w][i], TimeUnixMS: int64(i), Endpoint: "ask", Outcome: outcome}, tr)
				if i%7 == 0 && i >= 3 {
					rec.Get(ids[w][i-3]) // a reader beside the writers
				}
			}
		}()
	}
	wg.Wait()
	kept := 0
	for w := range writers {
		for i := range each {
			e := rec.Get(ids[w][i])
			if e == nil {
				if i%3 == 0 {
					t.Fatalf("error entry %d/%d not kept", w, i)
				}
				continue
			}
			kept++
			want := fmt.Sprintf("req-%d-%d", w, i)
			if r := e.Report; r == nil || r.ID != ids[w][i] || len(r.Spans) != 1 || r.Spans[0].Name != want ||
				r.Counters["steps"] != int64(i+1) {
				t.Fatalf("entry %s reports %+v, want its own trace with span %s", ids[w][i], r, want)
			}
		}
	}
	if kept <= writers*each/3 {
		t.Errorf("%d entries kept, want the errors and a sample", kept)
	}
}

// TestFingerprint pins the fingerprint: FingerprintHash of the shape — its
// bytes read as little-endian words, then its length, then SplitMix64's
// finalizer — as 16 lowercase hex digits (the values metric series and
// recorded entries carry), empty for an empty shape.
func TestFingerprint(t *testing.T) {
	for _, c := range []struct{ shape, want string }{
		{"shape-a", "20dcef8c643b0ec0"},
		{"?- Even(4).", "031365562a270963"},
		{strings.Repeat("succ(", 300), "31e46497415d2f4a"},
	} {
		if got := Fingerprint(c.shape); got != c.want {
			t.Errorf("Fingerprint(%.20q) = %q, want %q", c.shape, got, c.want)
		}
	}
	if Fingerprint("") != "" {
		t.Error("empty shape should have no fingerprint")
	}
}

// FuzzFingerprintSplit: a string folded into FingerprintHash in any number
// of pieces, cut anywhere, hashes as the whole string does — the bytes a
// piece leaves past its last whole word are carried into the next.
func FuzzFingerprintSplit(f *testing.F) {
	f.Add("Meets/1f(0.succ*512|,s7)", uint64(0x0307_0105))
	f.Add("Member/1f(0.ext[e1].ext[e3]*7|,e2)", uint64(0x0901_0808))
	f.Add("ab", uint64(1))
	f.Add(strings.Repeat("x", 17), uint64(0x0103_0703))
	f.Fuzz(func(t *testing.T, s string, cuts uint64) {
		h, rest := NewFingerprintHash(), s
		// Each byte of cuts is the length of the next piece, mod 16.
		for c := cuts; c != 0 && rest != ""; c >>= 8 {
			k := min(int(c&15), len(rest))
			h, rest = h.AddString(rest[:k]), rest[k:]
		}
		h = h.AddString(rest)
		if s == "" {
			return
		}
		if got, want := string(h.Append(nil)), Fingerprint(s); got != want {
			t.Errorf("%q folded in pieces (cuts %#x) = %s, whole %s", s, cuts, got, want)
		}
	})
}

func TestClipQuery(t *testing.T) {
	if got := ClipQuery("  ?-  Even(4)\n\t. "); got != "?- Even(4) ." {
		t.Errorf("whitespace not collapsed: %q", got)
	}
	long := strings.Repeat("é", MaxQueryText) // 2 bytes each; the bound falls inside a rune
	got := ClipQuery(long)
	want := strings.Repeat("é", MaxQueryText/2) + fmt.Sprintf("…(+%d bytes)", MaxQueryText)
	if got != want {
		t.Errorf("clipped to %d bytes ending %q, want %d ending %q", len(got), got[len(got)-24:], len(want), want[len(want)-24:])
	}
	if exact := strings.Repeat("x", MaxQueryText); ClipQuery(exact) != exact {
		t.Error("text of exactly the bound was altered")
	}
}

// TestRecorderBoundsQueryText: the rings pin clipped text, not request
// bodies. 2048 offers of a one-MiB query, all retained (errors) or eligible
// for sampling, must leave well under 4 MiB of query text behind.
func TestRecorderBoundsQueryText(t *testing.T) {
	rec := NewRecorder(0, 0, 1)
	big := "?- " + strings.Repeat("Even(4), ", 1<<20/9) + "Even(4)."
	for i := 0; i < 2048; i++ {
		outcome := OutcomeOK
		if i%2 == 0 {
			outcome = OutcomeError
		}
		rec.Offer(TraceEntry{ID: fmt.Sprint(i), TimeUnixMS: int64(i), Query: big, Outcome: outcome}, nil)
	}
	entries := rec.List(DefaultTraceBuffer)
	if len(entries) != DefaultTraceBuffer {
		t.Fatalf("rings hold %d entries, want %d", len(entries), DefaultTraceBuffer)
	}
	total := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Query, " bytes)") || len(e.Query) > MaxQueryText+32 {
			t.Fatalf("entry carries %d bytes of query text ending %q", len(e.Query), e.Query[len(e.Query)-16:])
		}
		total += len(e.Query)
	}
	if total >= 4<<20 {
		t.Fatalf("rings hold %d bytes of query text", total)
	}
}

// TestRecorderQuery: the /debug/traces list query both daemons serve — n
// with its default, its cap and its refusal, and the equality filters.
func TestRecorderQuery(t *testing.T) {
	rec := NewRecorder(1024, time.Hour, 1)
	for i := 0; i < 30; i++ {
		e := TraceEntry{ID: NewTraceID(), TimeUnixMS: int64(i), Endpoint: "ask", DB: "even", Tenant: "a", Outcome: OutcomeOK}
		if i%3 == 0 {
			e.DB, e.Tenant, e.Outcome = "odd", "b", OutcomeError
		}
		rec.Offer(e, NewTrace())
	}
	query := func(raw string) ([]*TraceEntry, int) {
		t.Helper()
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		entries, n, err := rec.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		return entries, n
	}
	if got, n := query(""); len(got) != 30 || n != 100 {
		t.Errorf("default: %d entries, n=%d", len(got), n)
	}
	if got, n := query("n=7"); len(got) != 7 || n != 7 || got[0].TimeUnixMS != 29 {
		t.Errorf("n=7: %d entries, n=%d, newest %d", len(got), n, got[0].TimeUnixMS)
	}
	if _, n := query("n=5000"); n != traceListLimit {
		t.Errorf("n=5000 settled on %d, want the cap %d", n, traceListLimit)
	}
	if got, _ := query("db=odd&tenant=b&outcome=error&endpoint=ask"); len(got) != 10 {
		t.Errorf("all four filters: %d entries, want 10", len(got))
	}
	if got, _ := query("db=odd&tenant=a"); len(got) != 0 {
		t.Errorf("contradictory filters: %d entries", len(got))
	}
	for _, bad := range []string{"n=zero", "n=0", "n=-3"} {
		q, _ := url.ParseQuery(bad)
		if _, _, err := rec.Query(q); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

func TestNewLogger(t *testing.T) {
	var buf strings.Builder
	l, err := NewLogger(&buf, "WARN", "json")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept", "k", 1)
	if got := buf.String(); strings.Contains(got, "dropped") || !strings.Contains(got, `"msg":"kept"`) {
		t.Errorf("warn-level JSON logger wrote %q", got)
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Error("unknown level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Error("unknown format accepted")
	}
}
