package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// TestRecordFraming exercises the record framing every file and stream uses.
func TestRecordFraming(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("alpha"), {}, []byte(strings.Repeat("x", 1024))}
	for _, p := range payloads {
		if err := WriteRecord(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	r := bytes.NewReader(stream)
	for i, want := range payloads {
		got, err := ReadRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %q want %q", i, got, want)
		}
	}
	if _, err := ReadRecord(r); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}

	// Torn tail: cut mid-record.
	r = bytes.NewReader(stream[:len(stream)-3])
	for i := 0; i < 2; i++ {
		if _, err := ReadRecord(r); err != nil {
			t.Fatalf("record %d before tear: %v", i, err)
		}
	}
	if _, err := ReadRecord(r); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want io.ErrUnexpectedEOF at torn tail, got %v", err)
	}

	// Bit rot: corrupt one payload byte of the final record.
	rot := bytes.Clone(stream)
	rot[len(rot)-1] ^= 1
	r = bytes.NewReader(rot)
	for i := 0; i < 2; i++ {
		if _, err := ReadRecord(r); err != nil {
			t.Fatalf("record %d before rot: %v", i, err)
		}
	}
	if _, err := ReadRecord(r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for bit rot, got %v", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	for _, m := range []Manifest{
		{},
		{SnapshotLSN: 7, LastLSN: 7},
		{SnapshotLSN: 1000, LastLSN: 123456, SnapshotBytes: 1 << 30},
	} {
		rec := EncodeManifest(m)
		got, err := DecodeManifest(rec)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip %+v -> %+v", m, got)
		}
	}
}

func TestManifestRejectsMalformed(t *testing.T) {
	good := EncodeManifest(Manifest{SnapshotLSN: 5, LastLSN: 9, SnapshotBytes: 100})
	cases := map[string][]byte{
		"empty":        {},
		"wrong tag":    append([]byte{0x00}, good[1:]...),
		"truncated":    good[:len(good)-1],
		"trailing":     append(append([]byte{}, good...), 0x01),
		"lsn inverted": EncodeManifest(Manifest{SnapshotLSN: 9, LastLSN: 5}),
	}
	for name, rec := range cases {
		if _, err := DecodeManifest(rec); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestRecordBytes pins the byte layout of one record of each kind this
// package encodes, framing included: a WAL mutation, a mutation frame
// around it, a heartbeat and a manifest. The bytes were recorded from the
// encoders this package replaced.
func TestRecordBytes(t *testing.T) {
	mut := EncodeMutation(300, Mutation{Op: OpExtend, Name: "even", Version: 2, Payload: []byte("Even(3).")})
	for _, tc := range []struct {
		name, want string
		payload    []byte
	}{
		{"mutation", "12000000fdff699302ac0202046576656e084576656e2833292e", mut},
		{"mutation frame", "1b0000005521863401ac028080b3c19c3302ac0202046576656e084576656e2833292e",
			EncodeFrame(Frame{Kind: FrameMutation, PrimaryLast: 300, TSMillis: 1760000000000, Record: mut})},
		{"heartbeat", "0800000067f00f1602068080b3c19c33", EncodeFrame(Frame{Kind: FrameHeartbeat, PrimaryLast: 6, TSMillis: 1760000000000})},
		{"manifest", "05000000e55671094d0609b702", EncodeManifest(Manifest{SnapshotLSN: 6, LastLSN: 9, SnapshotBytes: 311})},
	} {
		framed, err := AppendRecord(nil, tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(framed); got != tc.want {
			t.Errorf("%s record = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestMutationRoundTrip(t *testing.T) {
	for _, m := range []Mutation{
		{Op: OpPut, Name: "even", Version: 1, Payload: []byte("Even(0). Even(T) -> Even(T+2).")},
		{Op: OpExtend, Name: "even", Version: 2, Payload: []byte("Even(3).")},
		{Op: OpDelete, Name: "even"},
	} {
		rec := EncodeMutation(1<<40, m)
		lsn, got, err := DecodeMutation(rec)
		if err != nil || lsn != 1<<40 || got.Op != m.Op || got.Name != m.Name || got.Version != m.Version || !bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("%v: decoded lsn=%d %+v, %v", m.Op, lsn, got, err)
		}
		if peek, err := PeekLSN(rec); err != nil || peek != 1<<40 {
			t.Fatalf("%v: PeekLSN = %d, %v", m.Op, peek, err)
		}
	}
	bad := EncodeMutation(1, Mutation{Op: 9, Name: "x"})
	if _, _, err := DecodeMutation(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown op decoded: %v", err)
	}
}

// TestDecoderBounds: every read is checked against the payload, the first
// failure sticks, and each width refuses what does not fit it.
func TestDecoderBounds(t *testing.T) {
	e := NewEncoder(7, 0)
	e.Uvarint(math.MaxInt32 + 1)
	e.Uvarint(math.MaxUint64)
	d := NewDecoder(e.Payload())
	if d.Byte() != 7 || d.Int() != 0 || d.Err() == nil {
		t.Fatalf("Int took a count above MaxInt32: %v", d.Err())
	}
	d = NewDecoder(e.Payload())
	d.Byte()
	if got := d.Size(); got != math.MaxInt32+1 || d.Err() != nil {
		t.Fatalf("Size = %d, %v; want %d", got, d.Err(), math.MaxInt32+1)
	}
	if got := d.Size(); got != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Size took %d from a uvarint past MaxInt: %v", got, d.Err())
	}
	first := d.Err()
	if d.Byte() != 0 || d.Str() != "" || d.Rest() != nil || d.Done() != first {
		t.Fatal("a read after a failure did not return zero, or replaced the failure")
	}

	e = NewEncoder(1, 0)
	e.Uvarint(5)
	e.Raw([]byte("abc"))
	d = NewDecoder(e.Payload())
	d.Byte()
	if d.Str() != "" || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("a string past the payload decoded: %v", d.Err())
	}
	e = NewEncoder(1, 0)
	e.Str("ab")
	e.Bool(true)
	d = NewDecoder(append(e.Payload(), 0))
	if d.Byte() != 1 || d.Str() != "ab" || !d.Bool() || d.Remaining() != 1 || !errors.Is(d.Done(), ErrCorrupt) {
		t.Fatalf("trailing byte not refused: %v", d.Err())
	}
}

// TestReadRecordInto reads records into one buffer: a payload that fits is
// read into its storage, a larger one into a buffer of its own, and a torn
// or rotten record fails as ReadRecord fails.
func TestReadRecordInto(t *testing.T) {
	var stream bytes.Buffer
	small, large := []byte("alpha"), bytes.Repeat([]byte("y"), 300)
	for _, p := range [][]byte{small, large, {}} {
		if err := WriteRecord(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 64)
	r := bytes.NewReader(stream.Bytes())
	got, err := ReadRecordInto(r, buf)
	if err != nil || !bytes.Equal(got, small) {
		t.Fatalf("small record = %q, %v", got, err)
	}
	if &got[:1][0] != &buf[:1][0] {
		t.Error("a payload that fits the buffer was read elsewhere")
	}
	got, err = ReadRecordInto(r, buf)
	if err != nil || !bytes.Equal(got, large) {
		t.Fatalf("large record = %d bytes, %v", len(got), err)
	}
	if cap(buf) > 0 && &got[:1][0] == &buf[:1][0] {
		t.Error("a payload larger than the buffer was read into it")
	}
	if got, err = ReadRecordInto(r, buf); err != nil || len(got) != 0 {
		t.Fatalf("empty record = %q, %v", got, err)
	}
	if _, err := ReadRecordInto(r, buf); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
	torn := stream.Bytes()[:10]
	if _, err := ReadRecordInto(bytes.NewReader(torn), buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn record: %v", err)
	}
	rot := bytes.Clone(stream.Bytes())
	rot[9] ^= 1
	if _, err := ReadRecordInto(bytes.NewReader(rot), buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rotten record: %v", err)
	}
}

// TestEncoderReset reuses one encoder: a reset payload frames exactly as a
// fresh encoder's, in the same storage while it has room.
func TestEncoderReset(t *testing.T) {
	fresh := func(tag byte, s string) []byte {
		e := NewEncoder(tag, len(s))
		e.Str(s)
		rec, err := e.Record()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	e := NewEncoder('A', 64)
	e.Str(strings.Repeat("z", 60))
	storage := e.Cap()
	for _, s := range []string{"short", strings.Repeat("q", 50), ""} {
		e.Reset('B', len(s)+1)
		e.Str(s)
		rec, err := e.Record()
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh('B', s); !bytes.Equal(rec, want) {
			t.Errorf("reset record %x, fresh %x", rec, want)
		}
		if e.Cap() != storage {
			t.Errorf("a reset with room grew the storage from %d to %d", storage, e.Cap())
		}
	}
	e.Reset('C', 4*storage)
	if e.Cap() < 4*storage {
		t.Errorf("a reset for %d bytes left %d of storage", 4*storage, e.Cap())
	}
}
