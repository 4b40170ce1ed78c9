package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"testing"

	"funcdb/internal/wire"
)

// TestReplBytesStable pins what /v1/repl/* sends for a fixed put/extend/
// delete script: the SHA-256 of the six mutation frames /v1/repl/wal
// streams (their send-time clock zeroed, after checking each frame is the
// encoding of what it decodes to) and of the whole /v1/repl/snapshot body,
// manifest and snapshot file. The sums were recorded before the frame,
// manifest, journal and snapshot codecs moved onto package wire.
func TestReplBytesStable(t *testing.T) {
	ts, reg, _ := newPrimary(t)
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(reg.PutProgram("even", []byte(evenSrc)))
	must(reg.PutProgram("meet", []byte(meetingsSrc)))
	must(reg.ExtendFacts("even", []byte("Even(3).")))
	must(reg.PutSpec("spec", exportDoc(t, evenSrc)))
	must(reg.Remove("meet"))
	must(reg.ExtendFacts("even", []byte("Even(5).")))

	// The WAL first: the snapshot taken on demand below compacts it away.
	resp, err := http.Get(ts.URL + "/v1/repl/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	var frames bytes.Buffer
	for i := 0; i < 6; i++ {
		rec, err := wire.ReadRecord(br)
		if err != nil {
			t.Fatal(err)
		}
		f, err := wire.DecodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire.EncodeFrame(f), rec) {
			t.Fatalf("frame %d is not the encoding of %+v", i, f)
		}
		f.TSMillis = 0
		if err := wire.WriteRecord(&frames, wire.EncodeFrame(f)); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what, want string
		b          []byte
	}{
		{"WAL frames", "b827a8f13d7b857d6a4be25c5332e460f0f43b7450866090eea47b5e65981439", frames.Bytes()},
		{"snapshot response", "73741ed75471572a3e50045821b6219088abe0e7e863626694fbbdff3a7f4822", body},
	} {
		sum := sha256.Sum256(c.b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s (%d bytes) hash to %s, pinned %s", c.what, len(c.b), got, c.want)
		}
	}
}
