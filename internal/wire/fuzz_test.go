package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzReadRecord checks the record framing layer in isolation: arbitrary
// streams must produce only the documented error taxonomy, and any
// payload read back must carry a valid checksum by construction.
func FuzzReadRecord(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteRecord(&buf, []byte("hello"))
	_ = WriteRecord(&buf, nil)
	f.Add(buf.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := ReadRecord(r)
			if err != nil {
				if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorrupt) {
					return
				}
				t.Fatalf("unexpected error class: %v", err)
			}
			var out bytes.Buffer
			if err := WriteRecord(&out, payload); err != nil {
				t.Fatalf("accepted payload does not re-frame: %v", err)
			}
			if framed, err := AppendRecord(nil, payload); err != nil || !bytes.Equal(framed, out.Bytes()) {
				t.Fatalf("AppendRecord = %x, %v; WriteRecord wrote %x", framed, err, out.Bytes())
			}
		}
	})
}

// agree fails t unless the new decoder and the reference it replaced
// accepted or refused together, with equal values when both accepted, and
// every refusal wraps ErrCorrupt.
func agree(t *testing.T, data []byte, got, want any, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%x: decoder says %v, reference says %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrCorrupt) {
			t.Fatalf("%x: refusal %v does not wrap ErrCorrupt", data, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%x: decoder yields %+v, reference %+v", data, got, want)
	}
}

// FuzzMutationRecord holds DecodeMutation and PeekLSN to the WAL reader
// they replaced, and checks every accepted record survives a re-encode.
// (Not byte for byte: an overlong uvarint decodes, and re-encodes shorter.)
func FuzzMutationRecord(f *testing.F) {
	f.Add(EncodeMutation(1, Mutation{Op: OpPut, Name: "even", Version: 1, Payload: []byte("Even(0).")}))
	f.Add(EncodeMutation(1<<40, Mutation{Op: OpExtend, Name: "e", Version: 9, Payload: []byte("Even(3).")}))
	f.Add(EncodeMutation(7, Mutation{Op: OpDelete, Name: "x"}))
	f.Add(EncodeMutation(7, Mutation{Op: 9, Name: "x"}))
	f.Add([]byte{1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		lsn, m, err := DecodeMutation(data)
		wantLSN, wantM, wantErr := refDecodeMutation(data)
		agree(t, data, [2]any{lsn, m}, [2]any{wantLSN, wantM}, err, wantErr)
		if err == nil {
			reLSN, reM, err := DecodeMutation(EncodeMutation(lsn, m))
			agree(t, data, [2]any{reLSN, reM}, [2]any{lsn, m}, err, nil)
		}
		peek, err := PeekLSN(data)
		wantPeek, wantErr := refPeekLSN(data)
		agree(t, data, peek, wantPeek, err, wantErr)
	})
}

// FuzzFrame holds DecodeFrame to the stream frame reader it replaced.
func FuzzFrame(f *testing.F) {
	f.Add(EncodeFrame(Frame{Kind: FrameMutation, PrimaryLast: 3, TSMillis: 1760000000000,
		Record: EncodeMutation(3, Mutation{Op: OpPut, Name: "even", Version: 1})}))
	f.Add(EncodeFrame(Frame{Kind: FrameHeartbeat, PrimaryLast: 3, TSMillis: 1760000000000}))
	f.Add(EncodeFrame(Frame{Kind: FrameMutation, PrimaryLast: 3}))
	f.Add([]byte{FrameHeartbeat, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFrame(data)
		want, wantErr := refDecodeFrame(data)
		agree(t, data, got, want, err, wantErr)
		if err == nil {
			re, err := DecodeFrame(EncodeFrame(got))
			agree(t, data, re, got, err, nil)
		}
	})
}

// FuzzManifest holds DecodeManifest to the manifest reader it replaced.
func FuzzManifest(f *testing.F) {
	f.Add(EncodeManifest(Manifest{}))
	f.Add(EncodeManifest(Manifest{SnapshotLSN: 1000, LastLSN: 123456, SnapshotBytes: 1 << 30}))
	f.Add(EncodeManifest(Manifest{SnapshotLSN: 9, LastLSN: 5}))
	f.Add([]byte{manifestTag, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeManifest(data)
		want, wantErr := refDecodeManifest(data)
		agree(t, data, got, want, err, wantErr)
		if err == nil {
			re, err := DecodeManifest(EncodeManifest(got))
			agree(t, data, re, got, err, nil)
		}
	})
}
