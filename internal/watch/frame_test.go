package watch

import (
	"reflect"
	"testing"

	"funcdb/internal/query"
)

func TestFrameRoundtrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameInit, DB: "seen", Version: 1, LSN: 4,
			Add: []query.Tuple{{Args: []string{"a"}}, {Term: "succ.succ", Args: []string{"b", "c"}}}},
		{Type: FrameDelta, DB: "seen", Version: 2, LSN: 5,
			Add: []query.Tuple{{Args: []string{"b"}}}, Del: []query.Tuple{{Args: []string{"a"}}}},
		{Type: FrameResync, DB: "even", Version: 3, LSN: 6,
			Add: []query.Tuple{{Term: "0"}}, Truncated: true, Reason: ReasonTruncated},
		{Type: FrameHeartbeat, LSN: 7},
		{Type: FrameEnd, DB: "seen", LSN: 8, Reason: ReasonSlowConsumer},
	}
	for _, f := range frames {
		raw, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("EncodeFrame(%+v): %v", f, err)
		}
		if raw[len(raw)-1] != '\n' {
			t.Fatalf("EncodeFrame(%+v) not newline-terminated: %q", f, raw)
		}
		got, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("DecodeFrame(%q): %v", raw, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, f)
		}
	}
}

func TestFrameRejectsUnknownTypes(t *testing.T) {
	if _, err := EncodeFrame(Frame{Type: "surprise"}); err == nil {
		t.Fatal("EncodeFrame accepted an unknown frame type")
	}
	if _, err := DecodeFrame([]byte(`{"type":"surprise"}`)); err == nil {
		t.Fatal("DecodeFrame accepted an unknown frame type")
	}
	if _, err := DecodeFrame([]byte(`{"type":`)); err == nil {
		t.Fatal("DecodeFrame accepted malformed JSON")
	}
}

func TestTupleKeyCollisionFree(t *testing.T) {
	a := query.Tuple{Term: "t", Args: []string{"x", "y"}}
	b := query.Tuple{Term: "t", Args: []string{"x,y"}}
	c := query.Tuple{Term: "t.x", Args: []string{"y"}}
	if a.Key() == b.Key() || a.Key() == c.Key() || b.Key() == c.Key() {
		t.Fatalf("tuple keys collide: %q %q %q", a.Key(), b.Key(), c.Key())
	}
}

func TestTupleString(t *testing.T) {
	for _, tc := range []struct {
		tu   query.Tuple
		want string
	}{
		{query.Tuple{Args: []string{"a", "b"}}, "(a, b)"},
		{query.Tuple{Term: "succ.succ"}, "succ.succ"},
		{query.Tuple{Term: "succ", Args: []string{"s0"}}, "succ (s0)"},
	} {
		if got := tc.tu.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.tu, got, tc.want)
		}
	}
}
