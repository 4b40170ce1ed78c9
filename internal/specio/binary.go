package specio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"funcdb/internal/wire"
)

// The binary document is the compact durable form of a Document — what a
// store snapshot holds for a spec entry. It is a fixed header (magic,
// format version, two reserved bytes) followed by one wire record per
// section (metadata, alphabet, string table, predicates, representatives,
// edges, slices, globals, equations, end), each under its own CRC32.
// Symbols are written once into per-document tables and referenced by
// uvarint index afterwards, so the encoding is both smaller than the JSON
// document and cheaper to load than recompiling from rule source.
const (
	binaryMagic             = "FDBS"
	binaryVersion    uint16 = 1
	binaryHeaderSize        = 8
)

// Section record tags, in their mandatory stream order.
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

// EncodeDocument serializes a validated document in the binary form.
// Invalid documents are rejected so that every encoded stream decodes.
func EncodeDocument(d *Document) ([]byte, error) {
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
	addFacts := func(facts []FactDoc) {
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
	out.WriteString(binaryMagic)
	var vh [4]byte
	binary.LittleEndian.PutUint16(vh[0:2], binaryVersion)
	out.Write(vh[:]) // version + reserved

	termDoc := func(e *wire.Encoder, td TermDoc) {
		e.Int(len(td))
		for _, f := range td {
			e.Int(alphaIdx[f])
		}
	}
	factDoc := func(e *wire.Encoder, f FactDoc) {
		e.Int(strs.idx[f.Pred])
		e.Int(len(f.Args))
		for _, a := range f.Args {
			e.Int(strs.idx[a])
		}
	}
	steps := []struct {
		typ  byte
		fill func(*wire.Encoder)
	}{
		{recMeta, func(e *wire.Encoder) {
			e.Str(d.Format)
			e.Bool(d.Temporal)
			e.Int(d.SeedDepth)
		}},
		{recAlphabet, func(e *wire.Encoder) {
			e.Int(len(d.Alphabet))
			for _, f := range d.Alphabet {
				e.Str(f)
			}
		}},
		{recStrings, func(e *wire.Encoder) {
			e.Int(len(strs.list))
			for _, s := range strs.list {
				e.Str(s)
			}
		}},
		{recPredicates, func(e *wire.Encoder) {
			e.Int(len(d.Predicates))
			for _, p := range d.Predicates {
				e.Int(strs.idx[p.Name])
				e.Int(p.Arity)
				e.Bool(p.Functional)
			}
		}},
		{recReps, func(e *wire.Encoder) {
			e.Int(len(d.Reps))
			for _, td := range d.Reps {
				termDoc(e, td)
			}
		}},
		{recEdges, func(e *wire.Encoder) {
			e.Int(len(d.Edges))
			for _, ed := range d.Edges {
				e.Int(ed.From)
				e.Int(alphaIdx[ed.Fn])
				e.Int(ed.To)
			}
		}},
		{recSlices, func(e *wire.Encoder) {
			e.Int(len(d.Slices))
			for _, sl := range d.Slices {
				e.Int(sl.Rep)
				e.Int(len(sl.Facts))
				for _, f := range sl.Facts {
					factDoc(e, f)
				}
			}
		}},
		{recGlobals, func(e *wire.Encoder) {
			e.Int(len(d.Globals))
			for _, f := range d.Globals {
				factDoc(e, f)
			}
		}},
		{recEquations, func(e *wire.Encoder) {
			e.Int(len(d.Equations))
			for _, eq := range d.Equations {
				termDoc(e, eq.Left)
				termDoc(e, eq.Right)
			}
		}},
		{recEnd, func(e *wire.Encoder) {}},
	}
	for _, st := range steps {
		e := wire.NewEncoder(st.typ, 0)
		st.fill(e)
		if err := wire.WriteRecord(&out, e.Payload()); err != nil {
			return nil, err
		}
	}
	return out.Bytes(), nil
}

// DecodeDocument parses a binary document back into a document. The result
// is validated, so a successful decode always loads with Load.
func DecodeDocument(data []byte) (*Document, error) {
	r := bytes.NewReader(data)
	if err := readBinaryHeader(r); err != nil {
		return nil, err
	}
	d := &Document{}
	var strs []string
	termDoc := func(dd *wire.Decoder) TermDoc {
		n := dd.Int()
		// Every symbol takes at least a byte of the record: a larger count
		// is refused before it sizes the slice.
		if n > dd.Remaining() {
			dd.Fail("term of %d symbols with %d bytes left", n, dd.Remaining())
		}
		if dd.Err() != nil {
			return nil
		}
		td := make(TermDoc, 0, n)
		for i := 0; i < n; i++ {
			j := dd.Int()
			if dd.Err() != nil {
				return nil
			}
			if j >= len(d.Alphabet) {
				dd.Fail("alphabet index %d out of range", j)
				return nil
			}
			td = append(td, d.Alphabet[j])
		}
		return td
	}
	strAt := func(dd *wire.Decoder, what string) string {
		j := dd.Int()
		if dd.Err() != nil {
			return ""
		}
		if j >= len(strs) {
			dd.Fail("%s string index %d out of range", what, j)
			return ""
		}
		return strs[j]
	}
	factDoc := func(dd *wire.Decoder) FactDoc {
		f := FactDoc{Pred: strAt(dd, "predicate")}
		n := dd.Int()
		for i := 0; i < n && dd.Err() == nil; i++ {
			f.Args = append(f.Args, strAt(dd, "argument"))
		}
		return f
	}
	sections := []struct {
		typ  byte
		fill func(dd *wire.Decoder)
	}{
		{recMeta, func(dd *wire.Decoder) {
			d.Format = dd.Str()
			d.Temporal = dd.Bool()
			d.SeedDepth = dd.Int()
		}},
		{recAlphabet, func(dd *wire.Decoder) {
			n := dd.Int()
			for i := 0; i < n && dd.Err() == nil; i++ {
				d.Alphabet = append(d.Alphabet, dd.Str())
			}
		}},
		{recStrings, func(dd *wire.Decoder) {
			n := dd.Int()
			for i := 0; i < n && dd.Err() == nil; i++ {
				strs = append(strs, dd.Str())
			}
		}},
		{recPredicates, func(dd *wire.Decoder) {
			n := dd.Int()
			for i := 0; i < n && dd.Err() == nil; i++ {
				d.Predicates = append(d.Predicates, PredicateDoc{
					Name: strAt(dd, "predicate"), Arity: dd.Int(), Functional: dd.Bool(),
				})
			}
		}},
		{recReps, func(dd *wire.Decoder) {
			n := dd.Int()
			for i := 0; i < n && dd.Err() == nil; i++ {
				d.Reps = append(d.Reps, termDoc(dd))
			}
		}},
		{recEdges, func(dd *wire.Decoder) {
			n := dd.Int()
			for i := 0; i < n && dd.Err() == nil; i++ {
				from := dd.Int()
				fn := dd.Int()
				to := dd.Int()
				if dd.Err() != nil {
					return
				}
				if fn >= len(d.Alphabet) {
					dd.Fail("alphabet index %d out of range", fn)
					return
				}
				d.Edges = append(d.Edges, EdgeDoc{From: from, Fn: d.Alphabet[fn], To: to})
			}
		}},
		{recSlices, func(dd *wire.Decoder) {
			n := dd.Int()
			for i := 0; i < n && dd.Err() == nil; i++ {
				sl := SliceDoc{Rep: dd.Int()}
				m := dd.Int()
				for j := 0; j < m && dd.Err() == nil; j++ {
					sl.Facts = append(sl.Facts, factDoc(dd))
				}
				d.Slices = append(d.Slices, sl)
			}
		}},
		{recGlobals, func(dd *wire.Decoder) {
			n := dd.Int()
			for i := 0; i < n && dd.Err() == nil; i++ {
				d.Globals = append(d.Globals, factDoc(dd))
			}
		}},
		{recEquations, func(dd *wire.Decoder) {
			n := dd.Int()
			for i := 0; i < n && dd.Err() == nil; i++ {
				left := termDoc(dd)
				right := termDoc(dd)
				if dd.Err() == nil {
					d.Equations = append(d.Equations, EquationDoc{Left: left, Right: right})
				}
			}
		}},
		{recEnd, func(dd *wire.Decoder) {}},
	}
	for _, sec := range sections {
		payload, err := wire.ReadRecord(r)
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: missing section %d", wire.ErrCorrupt, sec.typ)
		}
		if err != nil {
			return nil, err
		}
		dd := wire.NewDecoder(payload)
		if typ := dd.Byte(); typ != sec.typ {
			return nil, fmt.Errorf("%w: want section %d, found %v", wire.ErrCorrupt, sec.typ, payload[:min(1, len(payload))])
		}
		sec.fill(dd)
		if err := dd.Done(); err != nil {
			return nil, err
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// readBinaryHeader checks the magic and format version.
func readBinaryHeader(r io.Reader) error {
	var hdr [binaryHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	if string(hdr[:4]) != binaryMagic {
		return fmt.Errorf("%w: bad magic %q", wire.ErrCorrupt, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != binaryVersion {
		return fmt.Errorf("specio: unsupported binary format version %d (have %d)", v, binaryVersion)
	}
	return nil
}
