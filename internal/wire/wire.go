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
	"sync"
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

// headers recycles WriteRecord's frame headers: one on the stack, handed to
// an io.Writer, would move to the heap, an allocation per record. A Writer
// retains nothing of what it is given, so a header is back in the pool as
// soon as it is written.
var headers = sync.Pool{New: func() any { return new([frameSize]byte) }}

// WriteRecord frames payload as one length-prefixed, checksummed record.
func WriteRecord(w io.Writer, payload []byte) error {
	h, err := frameHeader(payload)
	if err != nil {
		return err
	}
	hdr := headers.Get().(*[frameSize]byte)
	*hdr = h
	_, err = w.Write(hdr[:])
	headers.Put(hdr)
	if err != nil {
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

// ReadRecord reads one framed record into a buffer of its own: ReadRecordInto
// with no buffer to reuse.
func ReadRecord(r io.Reader) ([]byte, error) { return ReadRecordInto(r, nil) }

// ReadRecordInto reads one framed record into buf's storage when the payload
// fits it, and into a new buffer when it does not; the payload returned
// aliases whichever it used, so a caller that reads records into one buffer
// owns each payload only until its next read. It returns io.EOF at a clean
// record boundary, io.ErrUnexpectedEOF when the stream ends mid-record (a
// torn write), and an error wrapping ErrCorrupt when the length prefix is
// implausible or the checksum does not match.
//
// The frame header is read into buf's storage too, before the payload
// overwrites it: a header array of its own would escape to the heap through
// r, one allocation per record. A buffer too small for the header gets one
// that size.
func ReadRecordInto(r io.Reader, buf []byte) ([]byte, error) {
	hdr := buf[:0]
	if cap(hdr) < frameSize {
		hdr = make([]byte, 0, frameSize)
	}
	hdr = hdr[:frameSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		// io.EOF at a clean boundary, io.ErrUnexpectedEOF mid-header.
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > MaxRecordBytes {
		return nil, fmt.Errorf("%w: length prefix %d exceeds %d", ErrCorrupt, n, MaxRecordBytes)
	}
	buf = hdr[:0]
	var payload []byte
	if int(n) <= cap(buf) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Encoder builds one record payload. Every record kind opens with a tag
// byte naming it, so an encoder starts with one.
type Encoder struct {
	buf []byte // room for the frame's header, then the payload
}

// NewEncoder starts a payload with tag, with room for size more bytes.
func NewEncoder(tag byte, size int) *Encoder {
	e := new(Encoder)
	e.Reset(tag, size)
	return e
}

// Reset starts a new payload with tag in e's own storage, growing it only
// when it has no room for size more bytes. What e encoded before is gone, and
// so is a record Record returned for it.
func (e *Encoder) Reset(tag byte, size int) {
	if need := frameSize + 1 + size; cap(e.buf) < need {
		e.buf = make([]byte, frameSize+1, need)
	}
	e.buf = e.buf[:frameSize+1]
	e.buf[frameSize] = tag
}

// Cap returns the bytes e's storage holds: what keeping e for reuse retains.
func (e *Encoder) Cap() int { return cap(e.buf) }

// Payload returns the bytes encoded so far.
func (e *Encoder) Payload() []byte { return e.buf[frameSize:] }

// Record returns the payload framed as WriteRecord frames it, in one slice:
// the header goes into room the encoder kept before the payload, so nothing
// is copied and the record can go out in one write.
func (e *Encoder) Record() ([]byte, error) {
	hdr, err := frameHeader(e.Payload())
	if err != nil {
		return nil, err
	}
	copy(e.buf, hdr[:])
	return e.buf, nil
}

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
