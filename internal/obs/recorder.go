package obs

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Flight recorder: a per-process ring buffer holding the span trees of
// recent requests so a p99 spike or a budget kill can be examined after the
// fact, without anyone having asked for a trace up front. Retention is
// tail-based: entries that matter (errors, budget kills, sheds, anything
// over the slow threshold, and explicitly traced requests) always land in
// the kept ring; the unremarkable majority is sampled one-in-N into a
// second ring so the recorder still shows what normal looks like.
//
// The write path is lock-free — classify, one atomic add to pick a slot,
// one atomic pointer store — so recording every request costs nanoseconds
// even under the hot-path gate. Readers (the /debug/traces endpoints)
// snapshot slots with atomic loads and may observe a torn *ordering* across
// slots but never a torn entry.

// Request outcomes as classified for retention. OutcomeOK entries are
// sampled; everything else is always kept.
const (
	OutcomeOK         = "ok"
	OutcomeError      = "error"
	OutcomeBudgetKill = "budget_kill"
	OutcomeShed       = "shed"
	OutcomeSlow       = "slow"
)

// OutcomeForStatus maps an HTTP status and funcdb error code to a retention
// class. Budget kills (422 budget codes) and sheds (429, overloaded 503s)
// are distinguished from plain errors because they are the signals the
// admission layer acts on.
func OutcomeForStatus(status int, code string) string {
	switch code {
	case "budget_exceeded", "depth_budget_exceeded":
		return OutcomeBudgetKill
	case "rate_limited", "overloaded", "too_many_streams":
		return OutcomeShed
	}
	switch {
	case status == 0 || status < 400:
		return OutcomeOK
	case status == 429 || status == 503:
		return OutcomeShed
	default:
		return OutcomeError
	}
}

// TraceEntry is one recorded request. Report is populated only for retained
// entries (building it costs a copy of the span slice, skipped for drops).
type TraceEntry struct {
	ID          string  `json:"id"`
	TimeUnixMS  int64   `json:"time_unix_ms"`
	DurUS       int64   `json:"dur_us"`
	Endpoint    string  `json:"endpoint"`
	DB          string  `json:"db,omitempty"`
	Tenant      string  `json:"tenant,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Query       string  `json:"query,omitempty"`
	Status      int     `json:"status"`
	Code        string  `json:"code,omitempty"`
	Outcome     string  `json:"outcome"`
	Node        string  `json:"node,omitempty"` // set by the router when merging shard entries
	Report      *Report `json:"report,omitempty"`

	// Keep forces retention regardless of outcome — set for requests whose
	// client explicitly asked for a trace.
	Keep bool `json:"-"`

	// trace is a retained entry's trace, whose report Get renders.
	trace *Trace
}

// ring is a fixed-size lock-free overwrite buffer of entries.
type ring struct {
	slots []atomic.Pointer[TraceEntry]
	next  atomic.Uint64
}

func newRing(n int) *ring {
	return &ring{slots: make([]atomic.Pointer[TraceEntry], n)}
}

func (r *ring) put(e *TraceEntry) {
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(e)
}

func (r *ring) snapshot(dst []*TraceEntry) []*TraceEntry {
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			dst = append(dst, e)
		}
	}
	return dst
}

// Recorder defaults.
const (
	DefaultTraceBuffer = 1024                   // total ring capacity (kept + sampled)
	DefaultTraceSample = 64                     // keep 1 in N unremarkable requests
	DefaultSlowTrace   = 250 * time.Millisecond // slow threshold when none is configured
)

// Recorder is the per-process flight recorder. The zero value is not usable;
// construct with NewRecorder. A nil *Recorder is valid and all methods are
// no-ops, so call sites never branch on whether recording is enabled.
type Recorder struct {
	kept    *ring // errors, kills, sheds, slow, explicitly traced
	sampled *ring // 1-in-N of everything else
	slowUS  int64
	sample  uint64
	ctr     atomic.Uint64

	offered   atomic.Int64
	retained  atomic.Int64
	sampledCt atomic.Int64
}

// NewRecorder builds a flight recorder. capacity is the total entry budget
// (split 3:1 between the kept and sampled rings); slow is the duration past
// which an otherwise-ok request is retained; sampleEvery keeps one in N
// unremarkable requests. Zero or negative arguments take the defaults.
func NewRecorder(capacity int, slow time.Duration, sampleEvery int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceBuffer
	}
	if capacity < 8 {
		capacity = 8
	}
	if slow <= 0 {
		slow = DefaultSlowTrace
	}
	if sampleEvery <= 0 {
		sampleEvery = DefaultTraceSample
	}
	keepN := capacity * 3 / 4
	sampN := capacity - keepN
	return &Recorder{
		kept:    newRing(keepN),
		sampled: newRing(sampN),
		slowUS:  slow.Microseconds(),
		sample:  uint64(sampleEvery),
	}
}

// MaxQueryText bounds the query text one recorder entry or log line carries:
// a ring of 1024 entries must not pin 1024 request bodies.
const MaxQueryText = 1024

// ClipQuery renders query text for a recorder entry or a log line: runs of
// whitespace collapse to one space, and text past MaxQueryText bytes is cut
// (on a rune boundary) and replaced by a "…(+N bytes)" suffix counting what
// was dropped. The result never aliases q when q is longer than the bound.
func ClipQuery(q string) string {
	head := q
	if len(head) > MaxQueryText {
		cut := MaxQueryText
		for cut > 0 && !utf8.RuneStart(head[cut]) {
			cut--
		}
		head = head[:cut]
	}
	s := strings.Join(strings.Fields(head), " ")
	if len(head) < len(q) {
		s += "…(+" + strconv.Itoa(len(q)-len(head)) + " bytes)"
	}
	return s
}

// Offer records one finished request. e.Outcome should already be set via
// OutcomeForStatus; Offer upgrades ok entries past the slow threshold to
// OutcomeSlow. e.Query is the request's query text as received; everything
// derived per entry — the clipped text (ClipQuery), the heap copy of the
// entry itself — is built only when the entry is retained, and the trace's
// report only when Get asks for it. Offer takes tr over: a retained entry
// keeps it, and a dropped one gives it back when it came from AcquireTrace.
// Safe on a nil receiver.
func (rec *Recorder) Offer(e TraceEntry, tr *Trace) {
	if rec == nil {
		return
	}
	rec.offered.Add(1)
	keep := e.Keep || (e.Outcome != "" && e.Outcome != OutcomeOK)
	if !keep && e.DurUS >= rec.slowUS {
		e.Outcome = OutcomeSlow
		keep = true
	}
	if e.Outcome == "" {
		e.Outcome = OutcomeOK
	}
	switch {
	case keep:
		rec.retained.Add(1)
		rec.kept.put(retain(e, tr))
	case rec.ctr.Add(1)%rec.sample == 0:
		rec.sampledCt.Add(1)
		rec.sampled.put(retain(e, tr))
	case tr != nil:
		tr.release()
	}
}

// retain finishes an entry the rings will hold.
func retain(e TraceEntry, tr *Trace) *TraceEntry {
	if e.Report == nil && tr != nil {
		tr.finish()
		e.trace = tr
	}
	e.Query = ClipQuery(e.Query)
	return &e
}

// List returns up to limit recent entries from both rings, newest first,
// with reports stripped (fetch the full entry by ID via Get). Safe on a nil
// receiver.
func (rec *Recorder) List(limit int) []*TraceEntry {
	if rec == nil {
		return nil
	}
	if limit <= 0 {
		limit = 100
	}
	all := rec.kept.snapshot(nil)
	all = rec.sampled.snapshot(all)
	sort.Slice(all, func(i, j int) bool { return all[i].TimeUnixMS > all[j].TimeUnixMS })
	if len(all) > limit {
		all = all[:limit]
	}
	out := make([]*TraceEntry, len(all))
	for i, e := range all {
		c := *e
		c.Report, c.trace = nil, nil
		out[i] = &c
	}
	return out
}

// Get returns the full entry (with report) for a trace ID, or nil. When one
// trace passed through a process more than once the most recent entry wins.
// Safe on a nil receiver.
func (rec *Recorder) Get(id string) *TraceEntry {
	if rec == nil || id == "" {
		return nil
	}
	var best *TraceEntry
	for _, e := range append(rec.kept.snapshot(nil), rec.sampled.snapshot(nil)...) {
		if e.ID == id && (best == nil || e.TimeUnixMS > best.TimeUnixMS) {
			best = e
		}
	}
	if best == nil {
		return nil
	}
	c := *best
	if c.trace != nil {
		c.Report, c.trace = c.trace.Report(), nil
	}
	return &c
}

// Instrument registers the recorder's own meta-metrics on reg under the
// given name prefix (e.g. "funcdbd_").
func (rec *Recorder) Instrument(reg *Registry, prefix string) {
	if rec == nil || reg == nil {
		return
	}
	reg.Source(prefix+"traces_", "counter",
		"Flight recorder activity: requests offered, retained by the tail-based policy, and probabilistically sampled.",
		func() map[string]int64 {
			return map[string]int64{
				"offered_total":  rec.offered.Load(),
				"retained_total": rec.retained.Load(),
				"sampled_total":  rec.sampledCt.Load(),
			}
		})
}

// TraceFilterParams are the equality filters a /debug/traces query may carry;
// a router forwards exactly these to its shards.
var TraceFilterParams = []string{"db", "outcome", "tenant", "endpoint"}

// traceListLimit caps how many entries one list query may return.
const traceListLimit = 1000

// Query answers a /debug/traces list query: the n most recent entries
// (default 100, at most traceListLimit) equal to every filter param present.
// It also returns the n it settled on. The filters run after the cut, on
// List's copies (the rings are small).
func (rec *Recorder) Query(q url.Values) ([]*TraceEntry, int, error) {
	n := 100
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			return nil, 0, fmt.Errorf("invalid n %q", v)
		}
		n = min(parsed, traceListLimit)
	}
	entries := rec.List(n)
	for _, p := range TraceFilterParams {
		want := q.Get(p)
		if want == "" {
			continue
		}
		kept := entries[:0]
		for _, e := range entries {
			var have string
			switch p {
			case "db":
				have = e.DB
			case "outcome":
				have = e.Outcome
			case "tenant":
				have = e.Tenant
			case "endpoint":
				have = e.Endpoint
			}
			if have == want {
				kept = append(kept, e)
			}
		}
		entries = kept
	}
	return entries, n, nil
}
