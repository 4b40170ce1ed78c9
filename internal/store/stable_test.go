package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"funcdb/internal/registry"
)

// stableScript is the fixed put/extend/delete sequence whose bytes on disk
// are pinned: two programs, a spec document, facts, a delete.
func stableScript(t *testing.T, reg *registry.Registry) {
	t.Helper()
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
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestDiskBytesStable pins the SHA-256 of the WAL segment stableScript
// leaves and of the snapshot file of that catalog. The sums were recorded
// before the journal and snapshot codecs moved onto package wire.
func TestDiskBytesStable(t *testing.T) {
	dir := t.TempDir()
	s, reg, _ := openStore(t, dir, Options{Fsync: FsyncNever})
	defer s.Close()
	stableScript(t, reg)
	wal, err := os.ReadFile(singleSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, path, _ := s.NewestSnapshot()
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sha(wal), "6dc670faf9eabc7ecc555970104971d239f7b8fade39de6d07b2f67c2e2dcf9a"; got != want {
		t.Errorf("WAL segment (%d bytes) hashes to %s, pinned %s", len(wal), got, want)
	}
	if got, want := sha(snap), "91ad4b23737b660d325ed9c5c032102c6a034c04b2855d74ffbaee97d3f7613b"; got != want {
		t.Errorf("snapshot (%d bytes) hashes to %s, pinned %s", len(snap), got, want)
	}
}

// catalogListing renders every entry's name, kind, version and source size
// with its answers to a fixed set of asks, one line per entry.
func catalogListing(t *testing.T, reg *registry.Registry) string {
	t.Helper()
	var lines []string
	for _, e := range reg.List() {
		line := fmt.Sprintf("%s kind=%s version=%d source=%d", e.Name, e.Kind, e.Version, e.SourceBytes)
		qs := []string{"?- Even(1).", "?- Even(2).", "?- Even(3).", "?- Even(5).", "?- Even(7).", "?- Even(9).", "?- Meets(3, jan).", "?- Meets(4, bob)."}
		if e.Kind == registry.KindSpec {
			qs = []string{"Even(4)", "Even(5)", "Meets(2, tony)", "Meets(3, tony)"}
		}
		for _, q := range qs {
			yes, err := e.Ask(context.Background(), q)
			if err != nil {
				line += " " + q + "=err"
				continue
			}
			line += fmt.Sprintf(" %s=%v", q, yes)
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestParentDataDirRecovers recovers testdata/pr24, a data directory the
// store wrote before its codecs moved onto package wire: stableScript, a
// snapshot, then a tail that re-creates a deleted name, extends two
// programs, adds a spec and deletes one. Recovery must load the snapshot,
// replay the tail without a warning and serve the catalog it served then.
func TestParentDataDirRecovers(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "pr24")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	log := &warnLog{}
	s, reg, st := openStore(t, dir, Options{Logf: log.logf})
	defer s.Close()
	if st.SnapshotLSN != 6 || st.Entries != 2 || st.Replayed != 5 || st.Warnings != 0 {
		t.Fatalf("recovery stats = %+v, want snapshot at 6 with 2 entries, 5 replayed, no warning\n%s", st, log.dump())
	}
	want := strings.Join([]string{
		"even kind=program version=4 source=56 ?- Even(1).=false ?- Even(2).=true ?- Even(3).=true ?- Even(5).=true ?- Even(7).=true ?- Even(9).=true ?- Meets(3, jan).=false ?- Meets(4, bob).=false",
		"meet kind=program version=3 source=125 ?- Even(1).=false ?- Even(2).=false ?- Even(3).=false ?- Even(5).=false ?- Even(7).=false ?- Even(9).=false ?- Meets(3, jan).=true ?- Meets(4, bob).=true",
		"spec2 kind=spec version=1 source=1116 Even(4)=false Even(5)=false Meets(2, tony)=true Meets(3, tony)=false",
	}, "\n")
	if got := catalogListing(t, reg); got != want {
		t.Fatalf("recovered catalog:\n%s\nwant\n%s", got, want)
	}
}
