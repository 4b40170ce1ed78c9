package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/registry"
	"funcdb/internal/wire"
)

const evenSrc = `
Even(0).
Even(T) -> Even(T+2).
`

const meetingsSrc = `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`

// warnLog captures store warnings for assertions.
type warnLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *warnLog) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *warnLog) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

func (l *warnLog) dump() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// openStore opens a store over dir and recovers it into a fresh registry.
func openStore(t *testing.T, dir string, opts Options) (*Store, *registry.Registry, RecoveryStats) {
	t.Helper()
	opts.Dir = dir
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(core.Options{})
	st, err := s.Recover(reg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return s, reg, st
}

// exportDoc compiles src and returns its JSON specification document.
func exportDoc(t *testing.T, src string) []byte {
	t.Helper()
	db, err := core.Open(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// catalogState is a comparable fingerprint of a registry: entry identity
// plus answers to probe queries.
type catalogState map[string]string

func fingerprint(t *testing.T, reg *registry.Registry) catalogState {
	t.Helper()
	out := catalogState{}
	for _, e := range reg.List() {
		desc := fmt.Sprintf("kind=%s version=%d", e.Kind, e.Version)
		if e.Kind == registry.KindProgram {
			for _, q := range []string{"?- Even(2).", "?- Even(3).", "?- Even(7)."} {
				yes, err := e.Ask(context.Background(), q)
				if err != nil {
					desc += fmt.Sprintf(" %s=err", q)
					continue
				}
				desc += fmt.Sprintf(" %s=%v", q, yes)
			}
		} else {
			yes, err := e.Ask(context.Background(), "?- Even(4).")
			desc += fmt.Sprintf(" ?- Even(4).=%v/%v", yes, err == nil)
		}
		out[e.Name] = desc
	}
	return out
}

func requireEqualState(t *testing.T, got, want catalogState) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("catalog has %d entries, want %d\n got: %v\nwant: %v", len(got), len(want), got, want)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			t.Fatalf("entry %q:\n got %q\nwant %q", name, g, w)
		}
	}
}

// TestKillAndRestart is the core durability contract: journal mutations,
// abandon the store without any snapshot or clean close (a killed process
// keeps its written bytes; fsync only matters for machine crashes), and a
// fresh store over the same directory reproduces the catalog exactly —
// names, versions, answers.
func TestKillAndRestart(t *testing.T) {
	dir := t.TempDir()
	_, reg, _ := openStore(t, dir, Options{})

	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutProgram("meet", []byte(meetingsSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ExtendFacts("even", []byte("Even(3).")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutSpec("spec", exportDoc(t, evenSrc)); err != nil {
		t.Fatal(err)
	}
	if removed, err := reg.Remove("meet"); err != nil || !removed {
		t.Fatalf("remove: %v %v", removed, err)
	}
	if _, err := reg.PutProgram("meet", []byte(meetingsSrc)); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, reg)
	// No Close, no Snapshot: the "process" dies here.

	log := &warnLog{}
	_, reg2, st := openStore(t, dir, Options{Logf: log.logf})
	if st.Replayed != 6 {
		t.Fatalf("replayed %d records, want 6 (stats %+v)\n%s", st.Replayed, st, log.dump())
	}
	requireEqualState(t, fingerprint(t, reg2), want)

	// The recovered catalog keeps version monotonicity: re-putting a name
	// that was deleted and re-put pre-crash continues its version counter.
	e, err := reg2.PutProgram("meet", []byte(meetingsSrc))
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 3 {
		t.Fatalf("post-recovery version = %d, want 3", e.Version)
	}
}

// TestSnapshotThenTailReplay: state = snapshot + WAL tail. The snapshot
// retires covered segments; recovery replays only the tail.
func TestSnapshotThenTailReplay(t *testing.T) {
	dir := t.TempDir()
	s, reg, _ := openStore(t, dir, Options{})
	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutSpec("spec", exportDoc(t, meetingsSrc)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if n := s.Metrics().RecordsSinceSnapshot; n != 0 {
		t.Fatalf("records since snapshot = %d, want 0", n)
	}
	// Tail mutations after the checkpoint.
	if _, err := reg.ExtendFacts("even", []byte("Even(3).")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutProgram("late", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, reg)

	_, reg2, st := openStore(t, dir, Options{})
	if st.SnapshotLSN != 2 || st.Entries != 2 || st.Replayed != 2 {
		t.Fatalf("recovery stats = %+v, want snapshot at 2 with 2 entries and 2 replayed", st)
	}
	requireEqualState(t, fingerprint(t, reg2), want)
}

// TestTornFinalRecord: a WAL whose last record was cut mid-write recovers
// to the last valid record, truncates the tail, logs a warning — and keeps
// accepting appends afterwards.
func TestTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	_, reg, _ := openStore(t, dir, Options{})
	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ExtendFacts("even", []byte("Even(3).")); err != nil {
		t.Fatal(err)
	}
	seg := singleSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut three bytes off the final record.
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	log := &warnLog{}
	_, reg2, st := openStore(t, dir, Options{Logf: log.logf})
	if !log.contains("torn record") {
		t.Fatalf("no torn-record warning logged:\n%s", log.dump())
	}
	if st.Replayed != 1 {
		t.Fatalf("replayed %d, want 1 (the put; the extend was torn)", st.Replayed)
	}
	e, ok := reg2.Get("even")
	if !ok {
		t.Fatal("entry lost")
	}
	if yes, err := e.Ask(context.Background(), "?- Even(3)."); err != nil || yes {
		t.Fatalf("torn extend leaked: Even(3)=%v err=%v", yes, err)
	}
	// The log keeps working at the healed offset.
	if _, err := reg2.ExtendFacts("even", []byte("Even(5).")); err != nil {
		t.Fatal(err)
	}
	_, reg3, _ := openStore(t, dir, Options{})
	e3, ok := reg3.Get("even")
	if !ok {
		t.Fatal("entry lost after heal")
	}
	if yes, err := e3.Ask(context.Background(), "?- Even(5)."); err != nil || !yes {
		t.Fatalf("post-heal extend lost: Even(5)=%v err=%v", yes, err)
	}
	if e3.Version != 2 {
		t.Fatalf("post-heal version = %d, want 2", e3.Version)
	}
}

// TestCorruptChecksumMidLog: a flipped byte in the middle of the log stops
// replay at the last valid record before it, truncates the rest with a
// warning, and never panics or silently serves corrupted state.
func TestCorruptChecksumMidLog(t *testing.T) {
	dir := t.TempDir()
	_, reg, _ := openStore(t, dir, Options{})
	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ExtendFacts("even", []byte("Even(3).")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutProgram("other", []byte(meetingsSrc)); err != nil {
		t.Fatal(err)
	}
	seg := singleSegment(t, dir)
	offsets := recordOffsets(t, seg)
	if len(offsets) != 3 {
		t.Fatalf("have %d records, want 3", len(offsets))
	}
	// Flip a payload byte inside the SECOND record: mid-log, not the tail.
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[1].start+9] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	log := &warnLog{}
	_, reg2, st := openStore(t, dir, Options{Logf: log.logf})
	if !log.contains("corrupt record") {
		t.Fatalf("no corruption warning logged:\n%s", log.dump())
	}
	if st.Replayed != 1 {
		t.Fatalf("replayed %d, want 1", st.Replayed)
	}
	if _, ok := reg2.Get("other"); ok {
		t.Fatal("record after the corruption was silently applied")
	}
	e, ok := reg2.Get("even")
	if !ok {
		t.Fatal("record before the corruption was lost")
	}
	if yes, _ := e.Ask(context.Background(), "?- Even(3)."); yes {
		t.Fatal("corrupted extend leaked")
	}
}

// TestSnapshotFallback: an unreadable newest snapshot (bit rot) is skipped
// with a warning; recovery uses the previous complete one plus the WAL
// tail, losing nothing.
func TestSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	s, reg, _ := openStore(t, dir, Options{})
	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ExtendFacts("even", []byte("Even(3).")); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, reg)
	// A rotted snapshot claiming to be newer than the good one.
	bogus := filepath.Join(dir, "snap-0000000000000002.fsnap")
	if err := os.WriteFile(bogus, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	log := &warnLog{}
	_, reg2, st := openStore(t, dir, Options{Logf: log.logf})
	if !log.contains("unusable") {
		t.Fatalf("no fallback warning:\n%s", log.dump())
	}
	if st.SnapshotLSN != 1 {
		t.Fatalf("recovered from snapshot at lsn %d, want fallback to 1", st.SnapshotLSN)
	}
	if st.Replayed != 1 {
		t.Fatalf("replayed %d tail records, want 1", st.Replayed)
	}
	requireEqualState(t, fingerprint(t, reg2), want)
}

// TestSnapshotRejectsCraftedCounts: a meta record with a valid checksum and
// counts no writer produced — more name/version pairs than its bytes can
// hold, more entries than names with a version — is refused as corrupt before
// a count sizes anything (a versionCount of 1<<36 used to reach makemap and
// kill the process with an out-of-memory fatal error), from a replica's
// bootstrap and from crash recovery alike, which falls back to the older
// snapshot. So is an entry whose source size does not fit an int: it used
// to become a negative SourceBytes that GET /v1/db/{name} served.
func TestSnapshotRejectsCraftedCounts(t *testing.T) {
	meta := func(entries, versions uint64, pairs ...string) []byte {
		e := wire.NewEncoder(snapRecMeta, 0)
		for _, v := range []uint64{snapFormatVersion, 2, entries, versions} {
			e.Uvarint(v)
		}
		for _, name := range pairs {
			e.Str(name)
			e.Uvarint(1)
		}
		return e.Payload()
	}
	hugeSource := wire.NewEncoder(snapRecEntry, 0)
	hugeSource.Str("a")
	hugeSource.Byte(entryKindProgram)
	hugeSource.Uvarint(1)
	hugeSource.Uvarint(1 << 63)
	hugeSource.Raw([]byte(evenSrc))
	for _, tc := range []struct {
		name string
		recs [][]byte
	}{
		{"versions past any record", [][]byte{meta(0, 1<<36)}},
		{"versions past this record", [][]byte{meta(0, 7, "a", "b")}},
		{"entries past any stream", [][]byte{meta(1<<36, 0)}},
		{"entries past the versions", [][]byte{meta(3, 2, "a", "b")}},
		{"source size past an int", [][]byte{meta(1, 1, "a"), hugeSource.Payload()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var raw bytes.Buffer
			for _, rec := range append(tc.recs, []byte{snapRecEnd}) {
				if err := wire.WriteRecord(&raw, rec); err != nil {
					t.Fatal(err)
				}
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, _, _, err := parseSnapshot(bytes.NewReader(raw.Bytes()))
			runtime.ReadMemStats(&m1)
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("parseSnapshot = %v, want an error wrapping wire.ErrCorrupt", err)
			}
			if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 1<<20 {
				t.Errorf("refusing %d bytes allocated %d", raw.Len(), alloc)
			}
			if _, err := InstallSnapshot(t.TempDir(), raw.Bytes()); !errors.Is(err, wire.ErrCorrupt) {
				t.Errorf("InstallSnapshot = %v, want an error wrapping wire.ErrCorrupt", err)
			}

			dir := t.TempDir()
			s, reg, _ := openStore(t, dir, Options{})
			if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
				t.Fatal(err)
			}
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			want := fingerprint(t, reg)
			if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000002.fsnap"), raw.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			log := &warnLog{}
			_, reg2, st := openStore(t, dir, Options{Logf: log.logf})
			if !log.contains("unusable") || st.SnapshotLSN != 1 {
				t.Fatalf("recovered from lsn %d, want the fallback to 1 with a warning:\n%s", st.SnapshotLSN, log.dump())
			}
			requireEqualState(t, fingerprint(t, reg2), want)
		})
	}
}

// TestSnapshotEquivalenceUnderConcurrentMutation checkpoints while writers
// race, then proves recovery from (snapshot + tail) equals the final
// in-memory catalog. Run under -race.
func TestSnapshotEquivalenceUnderConcurrentMutation(t *testing.T) {
	dir := t.TempDir()
	s, reg, _ := openStore(t, dir, Options{Fsync: FsyncNever, SnapshotEvery: 4})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		name := fmt.Sprintf("db%d", g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch i % 3 {
				case 0:
					if _, err := reg.PutProgram(name, []byte(evenSrc)); err != nil {
						t.Errorf("put %s: %v", name, err)
						return
					}
				case 1:
					if _, err := reg.ExtendFacts(name, []byte("Even(3).")); err != nil {
						t.Errorf("extend %s: %v", name, err)
						return
					}
				case 2:
					if i == 5 {
						continue // leave the final extended state in place
					}
					if _, err := reg.Remove(name); err != nil {
						t.Errorf("remove %s: %v", name, err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := s.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutProgram("tail", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, reg)
	var wantVersions map[string]uint64
	reg.Capture(func(_ []*registry.Entry, vs map[string]uint64) { wantVersions = vs })

	log := &warnLog{}
	_, reg2, _ := openStore(t, dir, Options{Logf: log.logf})
	requireEqualState(t, fingerprint(t, reg2), want)
	reg2.Capture(func(_ []*registry.Entry, vs map[string]uint64) {
		for name, v := range wantVersions {
			if vs[name] != v {
				t.Errorf("version counter %q = %d, want %d", name, vs[name], v)
			}
		}
	})
	if t.Failed() {
		t.Logf("warnings:\n%s", log.dump())
	}
}

// TestCompactionRetiresSegments: after a snapshot, segments wholly covered
// by it are deleted and the WAL size gauge drops to the fresh segment.
func TestCompactionRetiresSegments(t *testing.T) {
	dir := t.TempDir()
	s, reg, _ := openStore(t, dir, Options{})
	for i := 0; i < 3; i++ {
		if _, err := reg.PutProgram(fmt.Sprintf("db%d", i), []byte(evenSrc)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Metrics().WALBytes
	if before == 0 {
		t.Fatal("WAL empty after three puts")
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("segments after snapshot = %v, want just the fresh one", segs)
	}
	if after := s.Metrics().WALBytes; after != 0 {
		t.Fatalf("WAL bytes after compaction = %d, want 0", after)
	}
	if s.Metrics().Snapshots != 1 {
		t.Fatalf("snapshot count = %d, want 1", s.Metrics().Snapshots)
	}
}

// TestAutomaticSnapshot: SnapshotEvery triggers a background checkpoint,
// and Close refuses further mutations.
func TestAutomaticSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, reg, _ := openStore(t, dir, Options{SnapshotEvery: 2})
	for i := 0; i < 4; i++ {
		if _, err := reg.PutProgram("db", []byte(evenSrc)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Snapshots == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.Metrics().Snapshots == 0 {
		t.Fatal("no automatic snapshot after SnapshotEvery mutations")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutProgram("db", []byte(evenSrc)); err == nil {
		t.Fatal("mutation accepted after Close")
	}
}

// TestBadOptions covers option validation.
func TestBadOptions(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := Open(Options{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Error("unknown fsync policy accepted")
	}
}

// singleSegment returns the only WAL segment in dir.
func singleSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v), want exactly 1", segs, err)
	}
	return segs[0]
}

// byteRange is one record's byte span within a segment file.
type byteRange struct{ start, end int64 }

func recordOffsets(t *testing.T, path string) []byteRange {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []byteRange
	off := int64(0)
	for {
		rec, err := wire.ReadRecord(f)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("offset scan: %v", err)
		}
		end := off + 8 + int64(len(rec))
		out = append(out, byteRange{start: off, end: end})
		off = end
	}
}
