package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// The hand-written decoders this package's Decoder replaced, kept verbatim
// (bar names) as the reference the differential fuzz targets in
// fuzz_test.go hold the new ones to: store's WAL record reader and
// peekLSN, and binspec's stream frame and manifest readers.

func refDecodeMutation(rec []byte) (uint64, Mutation, error) {
	type walRecord struct {
		lsn uint64
		m   Mutation
	}
	bad := func(what string) (uint64, Mutation, error) {
		return 0, Mutation{}, fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	if len(rec) < 1 {
		return bad("empty WAL record")
	}
	r := walRecord{m: Mutation{Op: Op(rec[0])}}
	rest := rec[1:]
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	str := func() ([]byte, bool) {
		n, ok := uv()
		if !ok || uint64(len(rest)) < n {
			return nil, false
		}
		b := rest[:n]
		rest = rest[n:]
		return b, true
	}
	var ok bool
	if r.lsn, ok = uv(); !ok {
		return bad("truncated lsn")
	}
	if r.m.Version, ok = uv(); !ok {
		return bad("truncated version")
	}
	name, ok := str()
	if !ok {
		return bad("truncated name")
	}
	r.m.Name = string(name)
	payload, ok := str()
	if !ok {
		return bad("truncated payload")
	}
	if len(payload) > 0 {
		r.m.Payload = bytes.Clone(payload)
	}
	if len(rest) != 0 {
		return bad("trailing bytes in WAL record")
	}
	switch r.m.Op {
	case OpPut, OpExtend, OpDelete:
	default:
		return bad(fmt.Sprintf("unknown op %d", r.m.Op))
	}
	return r.lsn, r.m, nil
}

func refPeekLSN(rec []byte) (uint64, error) {
	if len(rec) < 2 {
		return 0, fmt.Errorf("%w: short WAL record", ErrCorrupt)
	}
	lsn, n := binary.Uvarint(rec[1:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated lsn", ErrCorrupt)
	}
	return lsn, nil
}

func refDecodeFrame(rec []byte) (Frame, error) {
	bad := func(what string) (Frame, error) {
		return Frame{}, fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	if len(rec) == 0 {
		return bad("empty stream frame")
	}
	f := Frame{Kind: rec[0]}
	rest := rec[1:]
	for _, dst := range []*uint64{&f.PrimaryLast, &f.TSMillis} {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return bad("truncated stream frame header")
		}
		*dst = v
		rest = rest[n:]
	}
	switch f.Kind {
	case FrameMutation:
		if len(rest) == 0 {
			return bad("mutation frame without record")
		}
		f.Record = rest
	case FrameHeartbeat:
		if len(rest) != 0 {
			return bad("trailing bytes in heartbeat frame")
		}
	default:
		return bad(fmt.Sprintf("unknown frame kind %d", f.Kind))
	}
	return f, nil
}

func refDecodeManifest(rec []byte) (Manifest, error) {
	bad := func(what string) (Manifest, error) {
		return Manifest{}, fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	if len(rec) == 0 || rec[0] != manifestTag {
		return bad("not a manifest record")
	}
	rest := rec[1:]
	var m Manifest
	for _, dst := range []*uint64{&m.SnapshotLSN, &m.LastLSN, &m.SnapshotBytes} {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return bad("truncated manifest field")
		}
		*dst = v
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return bad("trailing bytes in manifest")
	}
	if m.LastLSN < m.SnapshotLSN {
		return bad(fmt.Sprintf("manifest last lsn %d below snapshot lsn %d", m.LastLSN, m.SnapshotLSN))
	}
	return m, nil
}
