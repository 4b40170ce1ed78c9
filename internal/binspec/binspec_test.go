package binspec

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/specio"
)

// document compiles src and exports its specification document.
func document(t testing.TB, src string) *specio.Document {
	t.Helper()
	db, err := core.Open(src, core.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	doc, err := db.Document()
	if err != nil {
		t.Fatalf("document: %v", err)
	}
	return doc
}

// normalize maps nil and empty slices to one representation so semantic
// equality is insensitive to the nil/[] distinction JSON preserves.
func normalize(d *specio.Document) string {
	c := *d
	if c.Alphabet == nil {
		c.Alphabet = []string{}
	}
	if c.Predicates == nil {
		c.Predicates = []specio.PredicateDoc{}
	}
	if c.Reps == nil {
		c.Reps = []specio.TermDoc{}
	}
	if c.Edges == nil {
		c.Edges = []specio.EdgeDoc{}
	}
	if c.Slices == nil {
		c.Slices = []specio.SliceDoc{}
	}
	if c.Globals == nil {
		c.Globals = []specio.FactDoc{}
	}
	if c.Equations == nil {
		c.Equations = []specio.EquationDoc{}
	}
	for i := range c.Slices {
		if c.Slices[i].Facts == nil {
			c.Slices[i].Facts = []specio.FactDoc{}
		}
	}
	raw, err := json.Marshal(&c)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

var corpus = []struct {
	name string
	src  string
}{
	{"meetings", "Meets(0, tony). Meets(1, jan). Meets(T, x) -> Meets(T+2, x)."},
	{"lists", datagen.SubsetsSrc(3)},
	{"subsets5", datagen.SubsetsSrc(5)},
	{"calendar", datagen.CalendarSrc(7)},
	{"robot", datagen.RobotSrc(4)},
	{"chain", datagen.ChainSrc(6)},
	{"automaton", datagen.RandomAutomatonSrc(5, 2, 11)},
}

// TestRoundTrip checks Encode/Decode is the identity on every corpus
// document, judged against the JSON form specio already golden-tests.
func TestRoundTrip(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			doc := document(t, tc.src)
			enc, err := EncodeDocument(doc)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := DecodeDocument(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got, want := normalize(dec), normalize(doc); got != want {
				t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, want)
			}
			// The decoded document must load into a standalone answerer.
			if _, err := specio.Load(dec); err != nil {
				t.Fatalf("load decoded: %v", err)
			}
		})
	}
}

// TestRoundTripThroughJSON cross-checks against specio's own codec: a
// document that went through JSON and back still binary-round-trips.
func TestRoundTripThroughJSON(t *testing.T) {
	doc := document(t, datagen.SubsetsSrc(4))
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	doc2, err := specio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncodeDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeDocument(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalize(dec), normalize(doc2); got != want {
		t.Fatalf("round trip through JSON mismatch:\n got %s\nwant %s", got, want)
	}
}

// TestSmallerThanJSON pins the headline claim: the binary form is smaller
// than the JSON document it replaces.
func TestSmallerThanJSON(t *testing.T) {
	doc := document(t, datagen.SubsetsSrc(6))
	enc, err := EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if len(enc) >= buf.Len() {
		t.Fatalf("binary form (%d bytes) not smaller than JSON (%d bytes)", len(enc), buf.Len())
	}
	t.Logf("subsets(6): binary %d bytes, JSON %d bytes (%.1fx)", len(enc), buf.Len(), float64(buf.Len())/float64(len(enc)))
}

// TestEncodeRejectsInvalid: invalid documents never reach the wire.
func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := EncodeDocument(&specio.Document{Format: "bogus"}); err == nil {
		t.Fatal("want error for invalid document")
	}
}

// TestDecodeCorruption flips every byte of an encoded document in turn and
// requires each corruption to be rejected, never to panic or silently
// produce a different valid document.
func TestDecodeCorruption(t *testing.T) {
	doc := document(t, datagen.SubsetsSrc(3))
	enc, err := EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := normalize(doc)
	for i := range enc {
		mut := bytes.Clone(enc)
		mut[i] ^= 0x5a
		dec, err := DecodeDocument(mut)
		if err != nil {
			continue
		}
		// A surviving decode must be byte-flip-insensitive content (it
		// isn't: CRCs cover every payload), so it must equal the original.
		if normalize(dec) != want {
			t.Fatalf("byte %d: corruption decoded to a different document", i)
		}
	}
}

// TestDecodeRejectsCraftedTermLength: a representative whose symbol count
// (a bare uvarint, checksummed like the rest) exceeds what is left of its
// record is refused before the count sizes a slice — 1<<30 symbols used to
// reserve 16 GB.
func TestDecodeRejectsCraftedTermLength(t *testing.T) {
	enc, err := EncodeDocument(document(t, datagen.SubsetsSrc(3)))
	if err != nil {
		t.Fatal(err)
	}
	var crafted bytes.Buffer
	crafted.Write(enc[:HeaderSize])
	for r := bytes.NewReader(enc[HeaderSize:]); ; {
		rec, err := ReadRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec[0] == recReps {
			rec = binary.AppendUvarint(binary.AppendUvarint([]byte{recReps}, 1), 1<<30)
		}
		if err := WriteRecord(&crafted, rec); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = DecodeDocument(crafted.Bytes())
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeDocument = %v, want an error wrapping ErrCorrupt", err)
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 1<<20 {
		t.Errorf("refusing the document allocated %d bytes", alloc)
	}
}

// TestDecodeTruncation cuts the stream at every prefix length; each cut
// must yield an error, mid-record cuts an io.ErrUnexpectedEOF or a missing
// section, never a success.
func TestDecodeTruncation(t *testing.T) {
	doc := document(t, datagen.SubsetsSrc(3))
	enc, err := EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeDocument(enc[:i]); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", i)
		}
	}
}

// TestRecordFraming exercises the low-level framing shared with the WAL.
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
