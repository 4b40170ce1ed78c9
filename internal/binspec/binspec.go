// Package binspec is the compact binary codec for relational
// specifications — the durable wire form behind package store.
//
// Where specio renders a specification as self-describing JSON, binspec
// encodes the same Document as a versioned, length-prefixed record stream:
// a fixed magic + format-version header, then one framed record per
// section (metadata, alphabet, string table, predicates, representatives,
// edges, slices, globals, equations), each protected by its own CRC32.
// Symbols are written once into per-document tables and referenced by
// varint index afterwards, so the encoding is both smaller than the JSON
// document and cheaper to load than recompiling from rule source — the
// paper's "rules may be forgotten" artifact in a form a storage engine can
// checksum, append and memory-map-cheaply re-read.
//
// The low-level record framing (WriteRecord / ReadRecord) is exported and
// shared with the write-ahead log in package store, so torn and corrupted
// records are detected the same way in both file kinds.
package binspec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"funcdb/internal/specio"
)

// Format identification.
const (
	// Magic opens every binspec document.
	Magic = "FDBS"
	// FormatVersion is the current document layout version.
	FormatVersion uint16 = 1
	// HeaderSize is the byte length of the document header
	// (magic + version + reserved).
	HeaderSize = 8
)

// MaxRecordBytes bounds a single framed record; ReadRecord rejects larger
// length prefixes as corruption rather than allocating them.
const MaxRecordBytes = 64 << 20

// ErrCorrupt marks a record whose checksum or framing is invalid. Torn
// tails (clean cut mid-record) surface as io.ErrUnexpectedEOF instead, so
// callers can distinguish "the write was interrupted" from "the bytes
// rotted".
var ErrCorrupt = errors.New("binspec: corrupt record")

// frameSize is the per-record framing overhead: u32 length + u32 CRC32.
const frameSize = 8

// WriteRecord frames payload as one length-prefixed, checksummed record.
func WriteRecord(w io.Writer, payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("binspec: record of %d bytes exceeds %d", len(payload), MaxRecordBytes)
	}
	var hdr [frameSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
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

// Section record types, in their mandatory stream order.
const (
	recMeta       byte = 1
	recAlphabet   byte = 2
	recStrings    byte = 3
	recPredicates byte = 4
	recReps       byte = 5
	recEdges      byte = 6
	recSlices     byte = 7
	recGlobals    byte = 8
	recEquations  byte = 9
	recEnd        byte = 10
)

// enc builds one record payload with varint primitives.
type enc struct{ buf []byte }

func (e *enc) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) int(v int)    { e.u64(uint64(v)) }
func (e *enc) str(s string) { e.int(len(s)); e.buf = append(e.buf, s...) }
func (e *enc) bool(b bool)  { e.buf = append(e.buf, boolByte(b)) }
func (e *enc) byte(b byte)  { e.buf = append(e.buf, b) }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// dec consumes one record payload; the first error sticks.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) int() int {
	v := d.u64()
	if v > math.MaxInt32 {
		d.fail("implausible count %d", v)
		return 0
	}
	return int(v)
}

func (d *dec) str() string {
	n := d.int()
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.buf) {
		d.fail("truncated string at offset %d", d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated byte at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

// strTable interns the predicate and constant names of a document so facts
// reference them by index.
type strTable struct {
	idx  map[string]int
	list []string
}

func (t *strTable) add(s string) int {
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := len(t.list)
	t.idx[s] = i
	t.list = append(t.list, s)
	return i
}

// EncodeDocument serializes a validated document in the binspec format.
// Invalid documents are rejected so that every encoded stream decodes.
func EncodeDocument(d *specio.Document) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	alphaIdx := make(map[string]int, len(d.Alphabet))
	for i, f := range d.Alphabet {
		alphaIdx[f] = i
	}
	strs := &strTable{idx: make(map[string]int)}
	for _, p := range d.Predicates {
		strs.add(p.Name)
	}
	addFacts := func(facts []specio.FactDoc) {
		for _, f := range facts {
			strs.add(f.Pred)
			for _, a := range f.Args {
				strs.add(a)
			}
		}
	}
	for _, sl := range d.Slices {
		addFacts(sl.Facts)
	}
	addFacts(d.Globals)

	var out bytes.Buffer
	out.WriteString(Magic)
	var vh [4]byte
	binary.LittleEndian.PutUint16(vh[0:2], FormatVersion)
	out.Write(vh[:]) // version + reserved

	record := func(typ byte, fill func(*enc)) error {
		e := &enc{buf: []byte{typ}}
		fill(e)
		return WriteRecord(&out, e.buf)
	}
	termDoc := func(e *enc, td specio.TermDoc) {
		e.int(len(td))
		for _, f := range td {
			e.int(alphaIdx[f])
		}
	}
	factDoc := func(e *enc, f specio.FactDoc) {
		e.int(strs.idx[f.Pred])
		e.int(len(f.Args))
		for _, a := range f.Args {
			e.int(strs.idx[a])
		}
	}
	steps := []struct {
		typ  byte
		fill func(*enc)
	}{
		{recMeta, func(e *enc) {
			e.str(d.Format)
			e.bool(d.Temporal)
			e.int(d.SeedDepth)
		}},
		{recAlphabet, func(e *enc) {
			e.int(len(d.Alphabet))
			for _, f := range d.Alphabet {
				e.str(f)
			}
		}},
		{recStrings, func(e *enc) {
			e.int(len(strs.list))
			for _, s := range strs.list {
				e.str(s)
			}
		}},
		{recPredicates, func(e *enc) {
			e.int(len(d.Predicates))
			for _, p := range d.Predicates {
				e.int(strs.idx[p.Name])
				e.int(p.Arity)
				e.bool(p.Functional)
			}
		}},
		{recReps, func(e *enc) {
			e.int(len(d.Reps))
			for _, td := range d.Reps {
				termDoc(e, td)
			}
		}},
		{recEdges, func(e *enc) {
			e.int(len(d.Edges))
			for _, ed := range d.Edges {
				e.int(ed.From)
				e.int(alphaIdx[ed.Fn])
				e.int(ed.To)
			}
		}},
		{recSlices, func(e *enc) {
			e.int(len(d.Slices))
			for _, sl := range d.Slices {
				e.int(sl.Rep)
				e.int(len(sl.Facts))
				for _, f := range sl.Facts {
					factDoc(e, f)
				}
			}
		}},
		{recGlobals, func(e *enc) {
			e.int(len(d.Globals))
			for _, f := range d.Globals {
				factDoc(e, f)
			}
		}},
		{recEquations, func(e *enc) {
			e.int(len(d.Equations))
			for _, eq := range d.Equations {
				termDoc(e, eq.Left)
				termDoc(e, eq.Right)
			}
		}},
		{recEnd, func(e *enc) {}},
	}
	for _, st := range steps {
		if err := record(st.typ, st.fill); err != nil {
			return nil, err
		}
	}
	return out.Bytes(), nil
}

// DecodeDocument parses a binspec stream back into a document. The result
// is validated, so a successful decode always loads with specio.Load.
func DecodeDocument(data []byte) (*specio.Document, error) {
	r := bytes.NewReader(data)
	if err := readHeader(r); err != nil {
		return nil, err
	}
	d := &specio.Document{}
	var strs []string
	next := func(want byte) (*dec, error) {
		payload, err := ReadRecord(r)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, want)
			}
			return nil, err
		}
		if len(payload) == 0 || payload[0] != want {
			return nil, fmt.Errorf("%w: want section %d, found %v", ErrCorrupt, want, payload[:min(1, len(payload))])
		}
		return &dec{buf: payload, off: 1}, nil
	}
	termDoc := func(dd *dec) specio.TermDoc {
		n := dd.int()
		if dd.err != nil {
			return nil
		}
		// Every symbol takes at least a byte of the record: a larger count
		// is refused before it sizes the slice.
		if n > len(dd.buf)-dd.off {
			dd.fail("term of %d symbols with %d bytes left", n, len(dd.buf)-dd.off)
			return nil
		}
		td := make(specio.TermDoc, 0, n)
		for i := 0; i < n; i++ {
			j := dd.int()
			if dd.err != nil {
				return nil
			}
			if j >= len(d.Alphabet) {
				dd.fail("alphabet index %d out of range", j)
				return nil
			}
			td = append(td, d.Alphabet[j])
		}
		return td
	}
	strAt := func(dd *dec, what string) string {
		j := dd.int()
		if dd.err != nil {
			return ""
		}
		if j >= len(strs) {
			dd.fail("%s string index %d out of range", what, j)
			return ""
		}
		return strs[j]
	}
	factDoc := func(dd *dec) specio.FactDoc {
		f := specio.FactDoc{Pred: strAt(dd, "predicate")}
		n := dd.int()
		for i := 0; i < n && dd.err == nil; i++ {
			f.Args = append(f.Args, strAt(dd, "argument"))
		}
		return f
	}
	sections := []struct {
		typ  byte
		fill func(dd *dec)
	}{
		{recMeta, func(dd *dec) {
			d.Format = dd.str()
			d.Temporal = dd.bool()
			d.SeedDepth = dd.int()
		}},
		{recAlphabet, func(dd *dec) {
			n := dd.int()
			for i := 0; i < n && dd.err == nil; i++ {
				d.Alphabet = append(d.Alphabet, dd.str())
			}
		}},
		{recStrings, func(dd *dec) {
			n := dd.int()
			for i := 0; i < n && dd.err == nil; i++ {
				strs = append(strs, dd.str())
			}
		}},
		{recPredicates, func(dd *dec) {
			n := dd.int()
			for i := 0; i < n && dd.err == nil; i++ {
				d.Predicates = append(d.Predicates, specio.PredicateDoc{
					Name: strAt(dd, "predicate"), Arity: dd.int(), Functional: dd.bool(),
				})
			}
		}},
		{recReps, func(dd *dec) {
			n := dd.int()
			for i := 0; i < n && dd.err == nil; i++ {
				d.Reps = append(d.Reps, termDoc(dd))
			}
		}},
		{recEdges, func(dd *dec) {
			n := dd.int()
			for i := 0; i < n && dd.err == nil; i++ {
				from := dd.int()
				fn := dd.int()
				to := dd.int()
				if dd.err != nil {
					return
				}
				if fn >= len(d.Alphabet) {
					dd.fail("alphabet index %d out of range", fn)
					return
				}
				d.Edges = append(d.Edges, specio.EdgeDoc{From: from, Fn: d.Alphabet[fn], To: to})
			}
		}},
		{recSlices, func(dd *dec) {
			n := dd.int()
			for i := 0; i < n && dd.err == nil; i++ {
				sl := specio.SliceDoc{Rep: dd.int()}
				m := dd.int()
				for j := 0; j < m && dd.err == nil; j++ {
					sl.Facts = append(sl.Facts, factDoc(dd))
				}
				d.Slices = append(d.Slices, sl)
			}
		}},
		{recGlobals, func(dd *dec) {
			n := dd.int()
			for i := 0; i < n && dd.err == nil; i++ {
				d.Globals = append(d.Globals, factDoc(dd))
			}
		}},
		{recEquations, func(dd *dec) {
			n := dd.int()
			for i := 0; i < n && dd.err == nil; i++ {
				left := termDoc(dd)
				right := termDoc(dd)
				if dd.err == nil {
					d.Equations = append(d.Equations, specio.EquationDoc{Left: left, Right: right})
				}
			}
		}},
		{recEnd, func(dd *dec) {}},
	}
	for _, sec := range sections {
		dd, err := next(sec.typ)
		if err != nil {
			return nil, err
		}
		sec.fill(dd)
		if err := dd.done(); err != nil {
			return nil, err
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// readHeader checks the magic and format version.
func readHeader(r io.Reader) error {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	if string(hdr[:4]) != Magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != FormatVersion {
		return fmt.Errorf("binspec: unsupported format version %d (have %d)", v, FormatVersion)
	}
	return nil
}
