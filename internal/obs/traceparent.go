package obs

import (
	"context"
	"net/http"
	"strconv"
)

// Cross-process trace propagation. The wire format is the W3C Trace Context
// traceparent header, version 00:
//
//	traceparent: 00-<32 hex trace-id>-<16 hex parent-id>-01
//
// A process that receives the header adopts the trace ID (NewTraceWith) and
// remembers the remote parent span; a process that calls another injects the
// header naming its current span (InjectTraceparent). After the downstream
// process returns its span tree, GraftReport splices it under the calling
// span so the caller renders one merged tree for the whole request.

// TraceparentHeader is the header name in net/http's canonical form — on the
// wire the name is case-insensitive, and spelling it the way http.Header
// stores it saves Get and Set a re-spelled copy per request.
const TraceparentHeader = "Traceparent"

// FormatTraceparent renders a version-00 traceparent value with the sampled
// flag set.
func FormatTraceparent(traceID, parentID string) string {
	return "00-" + traceID + "-" + parentID + "-01"
}

// ParseTraceparent splits a traceparent value into its trace and parent IDs.
// Unknown versions with the same shape are accepted (per spec); malformed
// values return ok=false.
func ParseTraceparent(v string) (traceID, parentID string, ok bool) {
	// "VV-" + 32 + "-" + 16 + "-FF" = 55 bytes minimum.
	if len(v) < 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", "", false
	}
	traceID, parentID = v[3:35], v[36:52]
	if !isHex(v[0:2]) || !ValidTraceID(traceID) || !validSpanID(parentID) {
		return "", "", false
	}
	if v[0] == 'f' && v[1] == 'f' { // version 0xff is forbidden
		return "", "", false
	}
	return traceID, parentID, true
}

// ValidTraceID reports whether s is a well-formed, non-zero 32-hex trace ID.
func ValidTraceID(s string) bool {
	return len(s) == 32 && isHex(s) && !allZero(s)
}

func validSpanID(s string) bool {
	return len(s) == 16 && isHex(s) && !allZero(s)
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// NewTraceWith starts a trace adopting an existing trace ID, so spans
// recorded here join a tree begun in another process. An invalid ID (or "")
// gets a fresh one.
func NewTraceWith(id string) *Trace {
	t := NewTrace()
	if ValidTraceID(id) {
		t.id = id
	}
	return t
}

// SetRemoteParent records the span ID of the remote caller, carried in the
// trace's report so merged trees can note where they were grafted from.
func (t *Trace) SetRemoteParent(parentID string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.remoteParent = parentID
	t.mu.Unlock()
}

// Counter returns the current value of a named trace counter (0 if unset).
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// CurrentSpanID returns the ID of the span enclosing ctx, or 0 when ctx is
// at the trace root (or carries no trace).
func CurrentSpanID(ctx context.Context) int {
	if ctx == nil {
		return 0
	}
	tc, _ := ctx.Value(traceCtxKey{}).(traceCtx)
	return tc.spanID
}

// InjectTraceparent sets the traceparent header for ctx's trace, naming the
// current span as the remote parent. No-op when ctx carries no trace.
func InjectTraceparent(ctx context.Context, h http.Header) {
	t := FromContext(ctx)
	if t == nil {
		return
	}
	// Local span IDs are small ints; render as a 16-hex parent ID. Span 0
	// (the root) maps to the reserved-looking but valid "000000000000cafe"
	// so the header never carries the forbidden all-zero parent.
	sid := CurrentSpanID(ctx)
	var pid string
	if sid <= 0 {
		pid = "000000000000cafe"
	} else {
		s := strconv.FormatUint(uint64(sid), 16)
		pid = "0000000000000000"[:16-len(s)] + s
	}
	h.Set(TraceparentHeader, FormatTraceparent(t.ID(), pid))
}

// GraftReport splices child — the span tree a downstream process returned —
// into parent under span underID: child span IDs are renumbered past the
// parent's, child roots are re-parented onto the graft span, child clocks are
// shifted by the graft span's start so the merged tree reads on one timeline,
// and counters merge by sum. Counters present in both reports double-count by
// design: the parent's copy already aggregated the child's work if the parent
// recorded it, which no funcdb process does — each process only counts local
// engine work.
func GraftReport(parent *Report, underID int, child *Report) {
	if parent == nil || child == nil {
		return
	}
	maxID := 0
	var base int64
	for _, s := range parent.Spans {
		if s.ID > maxID {
			maxID = s.ID
		}
		if s.ID == underID {
			base = s.StartUS
		}
	}
	for _, s := range child.Spans {
		s.ID += maxID
		if s.Parent == 0 {
			s.Parent = underID
		} else {
			s.Parent += maxID
		}
		s.StartUS += base
		parent.Spans = append(parent.Spans, s)
	}
	if len(child.Counters) > 0 {
		if parent.Counters == nil {
			parent.Counters = make(map[string]int64, len(child.Counters))
		}
		for k, v := range child.Counters {
			parent.Counters[k] += v
		}
	}
	parent.DroppedSpans += child.DroppedSpans
}
