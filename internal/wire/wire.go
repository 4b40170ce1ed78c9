// Package wire is the one byte layer under every record funcdb's daemons
// write to disk or ship between processes: the length+CRC32 record framing
// (WriteRecord / ReadRecord), one append-encoder and one bounds-checked
// decoder for the primitives record payloads are built from (bytes,
// uvarints, length-prefixed strings), and the records themselves that
// several packages share — the journaled catalog Mutation, the replication
// stream Frame and the snapshot Manifest.
//
// It imports nothing from the module, so a process that only forwards
// requests and records, like fdbrouter, links none of the compiler. Torn and corrupted records are told apart the same way
// in every file and stream: a clean cut mid-record is io.ErrUnexpectedEOF,
// an implausible length, a checksum mismatch or a malformed payload an
// error wrapping ErrCorrupt.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// MaxRecordBytes bounds a single framed record; ReadRecord rejects larger
// length prefixes as corruption rather than allocating them.
const MaxRecordBytes = 64 << 20

// ErrCorrupt marks a record whose checksum, framing or payload is invalid.
// Torn tails (clean cut mid-record) surface as io.ErrUnexpectedEOF instead,
// so callers can distinguish "the write was interrupted" from "the bytes
// rotted".
var ErrCorrupt = errors.New("wire: corrupt record")

// frameSize is the per-record framing overhead: u32 length + u32 CRC32.
const frameSize = 8

func frameHeader(payload []byte) ([frameSize]byte, error) {
	var hdr [frameSize]byte
	if len(payload) > MaxRecordBytes {
		return hdr, fmt.Errorf("wire: record of %d bytes exceeds %d", len(payload), MaxRecordBytes)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return hdr, nil
}

// WriteRecord frames payload as one length-prefixed, checksummed record.
func WriteRecord(w io.Writer, payload []byte) error {
	hdr, err := frameHeader(payload)
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// AppendRecord appends payload framed exactly as WriteRecord writes it, so
// a file append can be one write of one contiguous record.
func AppendRecord(dst, payload []byte) ([]byte, error) {
	hdr, err := frameHeader(payload)
	if err != nil {
		return dst, err
	}
	return append(append(dst, hdr[:]...), payload...), nil
}

// ReadRecord reads one framed record. It returns io.EOF at a clean record
// boundary, io.ErrUnexpectedEOF when the stream ends mid-record (a torn
// write), and an error wrapping ErrCorrupt when the length prefix is
// implausible or the checksum does not match.
func ReadRecord(r io.Reader) ([]byte, error) {
	var hdr [frameSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// io.EOF at a clean boundary, io.ErrUnexpectedEOF mid-header.
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxRecordBytes {
		return nil, fmt.Errorf("%w: length prefix %d exceeds %d", ErrCorrupt, n, MaxRecordBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Encoder builds one record payload. Every record kind opens with a tag
// byte naming it, so an encoder starts with one.
type Encoder struct{ buf []byte }

// NewEncoder starts a payload with tag, with room for size more bytes.
func NewEncoder(tag byte, size int) *Encoder {
	buf := make([]byte, 1, 1+size)
	buf[0] = tag
	return &Encoder{buf: buf}
}

// Payload returns the bytes encoded so far.
func (e *Encoder) Payload() []byte { return e.buf }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a byte, 1 for true.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Uvarint appends v as a uvarint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a non-negative int as a uvarint.
func (e *Encoder) Int(v int) { e.Uvarint(uint64(v)) }

// Str appends s with a uvarint length prefix.
func (e *Encoder) Str(s string) { e.Int(len(s)); e.buf = append(e.buf, s...) }

// Bytes appends b with a uvarint length prefix.
func (e *Encoder) Bytes(b []byte) { e.Int(len(b)); e.buf = append(e.buf, b...) }

// Raw appends b as is: a record's unprefixed tail.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder reads one record payload. Every read is bounds-checked against
// the payload, and the first failure sticks: later reads return zero values
// and Err reports the failure, an error wrapping ErrCorrupt.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads payload from its first byte.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Fail records a malformed payload unless an earlier failure already stuck.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Err returns the failure that stuck, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns how many payload bytes are left unread.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Done returns the failure that stuck, or an error when bytes are left
// unread.
func (d *Decoder) Done() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Fail("%d trailing bytes in record", len(d.buf)-d.off)
	}
	return d.err
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.Fail("truncated byte at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads a byte; anything but 0 is true.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.Fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a count, an index or a depth: a uvarint no writer produces
// above math.MaxInt32, so a larger one is refused rather than trusted.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt32 {
		d.Fail("implausible count %d", v)
		return 0
	}
	return int(v)
}

// Size reads a byte size. Sizes accumulate (a database grows with every
// extend), so unlike Int it takes any value that fits an int.
func (d *Decoder) Size() int {
	v := d.Uvarint()
	if v > math.MaxInt {
		d.Fail("size %d does not fit an int", v)
		return 0
	}
	return int(v)
}

// Bytes reads a uvarint-length-prefixed byte string. The result aliases
// the payload.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.Fail("truncated string at offset %d", d.off)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Str reads a uvarint-length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Rest reads everything left: a record's unprefixed tail. The result
// aliases the payload.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	b := d.buf[d.off:]
	d.off = len(d.buf)
	return b
}
