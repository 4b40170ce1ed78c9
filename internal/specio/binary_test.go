package specio_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/specio"
	"funcdb/internal/wire"
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
			enc, err := specio.EncodeDocument(doc)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := specio.DecodeDocument(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if got, want := normalize(dec), normalize(doc); got != want {
				t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, want)
			}
			// The decoded document must load into a snapshot.
			if _, err := core.LoadSpec(dec); err != nil {
				t.Fatalf("load decoded: %v", err)
			}
		})
	}
}

// TestRoundTripThroughJSON cross-checks the binary form against the JSON
// one: a document that went through JSON and back still binary-round-trips.
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
	enc, err := specio.EncodeDocument(doc2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := specio.DecodeDocument(enc)
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
	enc, err := specio.EncodeDocument(doc)
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
	if _, err := specio.EncodeDocument(&specio.Document{Format: "bogus"}); err == nil {
		t.Fatal("want error for invalid document")
	}
}

// TestDecodeCorruption flips every byte of an encoded document in turn and
// requires each corruption to be rejected, never to panic or silently
// produce a different valid document.
func TestDecodeCorruption(t *testing.T) {
	doc := document(t, datagen.SubsetsSrc(3))
	enc, err := specio.EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := normalize(doc)
	for i := range enc {
		mut := bytes.Clone(enc)
		mut[i] ^= 0x5a
		dec, err := specio.DecodeDocument(mut)
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
	enc, err := specio.EncodeDocument(document(t, datagen.SubsetsSrc(3)))
	if err != nil {
		t.Fatal(err)
	}
	var crafted bytes.Buffer
	crafted.Write(enc[:specio.BinaryHeaderSize])
	for r := bytes.NewReader(enc[specio.BinaryHeaderSize:]); ; {
		rec, err := wire.ReadRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec[0] == specio.RecReps {
			e := wire.NewEncoder(specio.RecReps, 0)
			e.Int(1)
			e.Int(1 << 30)
			rec = e.Payload()
		}
		if err := wire.WriteRecord(&crafted, rec); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = specio.DecodeDocument(crafted.Bytes())
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("DecodeDocument = %v, want an error wrapping wire.ErrCorrupt", err)
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
	enc, err := specio.EncodeDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := specio.DecodeDocument(enc[:i]); err == nil {
			t.Fatalf("truncation at %d bytes decoded successfully", i)
		}
	}
}

// TestBinaryDocumentStable pins the SHA-256 of the binary document of every
// testdata/corpus program and of each datagen family at a small size. The
// sums were recorded when the codec still lived in its own package, so a
// byte the move to the shared wire encoder changed shows here.
func TestBinaryDocumentStable(t *testing.T) {
	want := map[string]string{
		"abp.fdb":        "65a3c16e56189e1fbbf4f7ac57ea2ca6e88f74a551f1d7f16a7094fe98500bec",
		"appendix.fdb":   "49f19b4bd3f7bbd41cebcfe3b12051fae84ca8b5dbe6082f29fad7b2545dabf7",
		"automaton1":     "4b8c8d623bb2ad0a16f79de85d678e2121185e761261d072766ffabb36a2ffee",
		"bidi1":          "e20a08013bfab7cb9e71d21b8f24e137752a7d3c5fa897b018aadb685975f097",
		"binary11.fdb":   "03cefef4aac389bd923f169f29980ca5eef07cac3969126cf078d6a26a01b93b",
		"calendar5":      "dd84ca6e95ea5b2b4d30b90a31af34afb15368eed8e6db86504132456cbb2b57",
		"chain3":         "eb3491043cc008d2f935783fa86dafc542e73b65aa41a84fa8815dc40d978af5",
		"deepfact.fdb":   "0277dbd5de359cdf7909731bd48279dc2c3f1fce0bb7e82130d4b8355653c3b4",
		"deepseed.fdb":   "7bb3bf85aaddcff171ef7a2a6cea4ac148e9c6aa0bf5d2c6c8f40afea56abc30",
		"downstream.fdb": "b819dbade72e499699c2614ea7b9c2101b2345ec209dc1123ffccd987321a5e1",
		"emptyish.fdb":   "9719d65ee6bc6262366fe2ebbc5ac66a8b18a09fb5e110d8ec5cc555fd932697",
		"gridbot.fdb":    "074e37ee13b9215980bdd20d9543e120cd26f58c1dbf45502da48d65a9797cba",
		"inference.fdb":  "4ad0c026c20241511b1622b4daef32c932fe60b9ceb58c83e5a74e43d72356d6",
		"lineage.fdb":    "ff670b6ee4d6f57a576a6778ca8dc53156f200c221c0c409bf2fac36757f9c35",
		"mod3mod5.fdb":   "4fe06fe8d5d6163cbb75a68b73bb74a3aacb279c496711ca8c9579b1de7d3930",
		"robot4":         "bfa300741a9b0854b2614b969e58f44b4bfc171777d6bad368dfd45689176510",
		"subsets3":       "5edd194a458fcfb685a07a51b77b491b056912f0442fc5899345eba4736a62a0",
		"temporal1":      "efb60c6c87452857f24fe32e5246ef50f7ed797f9af1bd54a0695690e60f9247",
		"vending.fdb":    "1e23d8364727620e05885f4c9212646abcb3bd90380e0cbca2d42525c18923f4",
		"weekdays.fdb":   "ece22fa1f4139309959e74853ecc4cc4e63a56d84fbefcc89d522280d758af9e",
	}
	srcs := map[string]string{
		"calendar5":  datagen.CalendarSrc(5),
		"chain3":     datagen.ChainSrc(3),
		"subsets3":   datagen.SubsetsSrc(3),
		"robot4":     datagen.RobotSrc(4),
		"automaton1": datagen.RandomAutomatonSrc(4, 2, 1),
		"temporal1":  datagen.RandomTemporalSrc(3, 1),
		"bidi1":      datagen.RandomBidiSrc(3, 2, 1),
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.fdb"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(raw)
	}
	if len(srcs) != len(want) {
		t.Errorf("%d programs, %d pinned sums", len(srcs), len(want))
	}
	for name, src := range srcs {
		enc, err := specio.EncodeDocument(document(t, src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: binary document hashes to %s, pinned %s", name, got, want[name])
		}
	}
}

// FuzzBinspecRead throws arbitrary bytes at the binary document decoder. It
// must never panic or hang: every input either yields a document that
// survives a re-encode/re-decode round trip, or a clean error. Seeds are the
// honestly-encoded corpus documents plus a few targeted corruptions, so the
// fuzzer starts deep inside the format instead of rediscovering the magic
// number.
func FuzzBinspecRead(f *testing.F) {
	for _, tc := range corpus {
		enc, err := specio.EncodeDocument(document(f, tc.src))
		if err != nil {
			f.Fatalf("%s: encode: %v", tc.name, err)
		}
		f.Add(enc)
		// A truncation and a bit flip per corpus entry.
		f.Add(enc[:len(enc)/2])
		flip := bytes.Clone(enc)
		flip[len(flip)/3] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte(specio.BinaryMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := specio.DecodeDocument(data)
		if err != nil {
			return
		}
		re, err := specio.EncodeDocument(doc)
		if err != nil {
			// A decoded document can exceed encoder limits only if the
			// decoder accepted something the encoder would never produce.
			t.Fatalf("decoded document does not re-encode: %v", err)
		}
		if _, err := specio.DecodeDocument(re); err != nil {
			t.Fatalf("re-encoded document does not decode: %v", err)
		}
	})
}
