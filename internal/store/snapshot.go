package store

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"funcdb/internal/registry"
	"funcdb/internal/specio"
	"funcdb/internal/wire"
)

// Snapshot file layout: a stream of wire records —
//
//	meta record:  byte 1, uvarint format version (1), uvarint lsn,
//	              uvarint entry count, uvarint version-counter count,
//	              then (name, counter) pairs
//	entry record: byte 2, name, kind byte (1 program / 2 spec),
//	              uvarint version, uvarint source bytes, payload
//	              (program: current source text; spec: specio binary
//	              document)
//	end record:   byte 3
//
// The end record is what distinguishes a complete checkpoint from one cut
// short by a crash mid-write; loading is all-or-nothing per file, with
// automatic fallback to the previous snapshot.

const snapFormatVersion = 1

const (
	snapRecMeta  byte = 1
	snapRecEntry byte = 2
	snapRecEnd   byte = 3
)

const (
	entryKindProgram byte = 1
	entryKindSpec    byte = 2
)

// snapEntry is one catalog entry captured for (or parsed from) a snapshot.
type snapEntry struct {
	name        string
	kind        byte
	version     uint64
	sourceBytes int
	payload     []byte
	doc         *specio.Document // captured spec entries, encoded later
}

// Snapshot checkpoints the attached registry's full catalog: the entry
// set, every entry's payload and version, and the version counters of
// deleted names, all paired with the exact LSN the log had reached. After
// a successful write it retires WAL segments wholly covered by the
// checkpoint and prunes old snapshot files.
func (s *Store) Snapshot() error {
	s.snapOnce.Lock()
	defer s.snapOnce.Unlock()

	s.mu.Lock()
	reg := s.attached
	s.mu.Unlock()
	if reg == nil {
		return errors.New("store: no registry attached (call Recover first)")
	}

	var (
		entries  []snapEntry
		versions map[string]uint64
		lsn      uint64
	)
	reg.Capture(func(es []*registry.Entry, vs map[string]uint64) {
		versions = vs
		// No mutation can commit while Capture holds the registry writer
		// lock, and every append happens under it, so this LSN is exactly
		// the state being captured.
		s.mu.Lock()
		lsn = s.nextLSN - 1
		s.mu.Unlock()
		for _, e := range es {
			se := snapEntry{name: e.Name, version: e.Version, sourceBytes: e.SourceBytes}
			switch e.Kind {
			case registry.KindProgram:
				se.kind = entryKindProgram
				// Captured under the lock: a concurrent ExtendFacts cannot
				// slip facts into the text that the LSN does not cover.
				se.payload = []byte(e.Database().SourceText())
			case registry.KindSpec:
				se.kind = entryKindSpec
				se.doc = e.Document() // immutable; encoded outside the lock
			}
			entries = append(entries, se)
		}
	})

	for i := range entries {
		if entries[i].doc != nil {
			payload, err := specio.EncodeDocument(entries[i].doc)
			if err != nil {
				return fmt.Errorf("store: encode %q: %w", entries[i].name, err)
			}
			entries[i].payload = payload
		}
	}

	if err := s.writeSnapshotFile(lsn, entries, versions); err != nil {
		return err
	}
	s.mSnapshots.Add(1)

	s.mu.Lock()
	if lsn > s.snapLSN {
		s.snapLSN = lsn
	}
	s.mSinceSnap.Store(int64(s.nextLSN - 1 - s.snapLSN))
	rotateErr := s.rotateSegmentLocked()
	snapLSN := s.snapLSN
	s.mu.Unlock()
	if rotateErr != nil {
		return rotateErr
	}

	s.compact(snapLSN)
	return nil
}

// writeSnapshotFile serializes the checkpoint to a temp file and renames
// it into place, fsyncing file and directory, so a crash mid-write leaves
// either the old snapshot set or the old set plus a complete new one.
func (s *Store) writeSnapshotFile(lsn uint64, entries []snapEntry, versions map[string]uint64) error {
	tmp, err := os.CreateTemp(s.opts.Dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 1<<16)

	meta := wire.NewEncoder(snapRecMeta, 0)
	meta.Uvarint(snapFormatVersion)
	meta.Uvarint(lsn)
	meta.Int(len(entries))
	meta.Int(len(versions))
	names := make([]string, 0, len(versions))
	for n := range versions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		meta.Str(n)
		meta.Uvarint(versions[n])
	}
	err = wire.WriteRecord(bw, meta.Payload())
	for _, e := range entries {
		if err != nil {
			break
		}
		rec := wire.NewEncoder(snapRecEntry, 32+len(e.name)+len(e.payload))
		rec.Str(e.name)
		rec.Byte(e.kind)
		rec.Uvarint(e.version)
		rec.Int(e.sourceBytes)
		rec.Raw(e.payload)
		err = wire.WriteRecord(bw, rec.Payload())
	}
	if err == nil {
		err = wire.WriteRecord(bw, []byte{snapRecEnd})
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	final := s.snapshotPath(lsn)
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	return syncDir(s.opts.Dir)
}

// rotateSegmentLocked starts a fresh WAL segment so the previous one can
// be retired once the snapshot covers it.
func (s *Store) rotateSegmentLocked() error {
	if s.closed || s.wal == nil {
		return nil
	}
	if s.walSize == 0 {
		return nil // current segment is empty; nothing to rotate away from
	}
	if s.opts.Fsync != FsyncNever {
		if err := s.wal.Sync(); err != nil {
			return err
		}
	}
	if err := s.wal.Close(); err != nil {
		return err
	}
	path := s.segmentPath(s.nextLSN)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.wal = f
	s.walPath = path
	s.walSize = 0
	return nil
}

// compact deletes WAL segments wholly covered by the snapshot at snapLSN
// and prunes all but the two newest snapshot files.
func (s *Store) compact(snapLSN uint64) {
	segs := s.listSegments()
	for i := 0; i+1 < len(segs); i++ {
		// A non-final segment holds LSNs [firstLSN, next.firstLSN-1].
		if segs[i+1].firstLSN <= snapLSN+1 {
			if err := os.Remove(segs[i].path); err != nil {
				s.warnf("failed to retire %s: %v", segs[i].path, err)
			}
		}
	}
	snaps := s.listSnapshots()
	for i := 0; i+2 < len(snaps); i++ {
		if err := os.Remove(snaps[i].path); err != nil {
			s.warnf("failed to prune snapshot %s: %v", snaps[i].path, err)
		}
	}
	s.mu.Lock()
	s.mWALBytes.Store(s.scanWALBytesLocked())
	s.mu.Unlock()
}

// snapFile is one snapshot on disk.
type snapFile struct {
	path string
	lsn  uint64
}

// listSnapshots returns the snapshot files sorted by covered LSN,
// oldest first.
func (s *Store) listSnapshots() []snapFile {
	paths, _ := filepath.Glob(filepath.Join(s.opts.Dir, "snap-*.fsnap"))
	out := make([]snapFile, 0, len(paths))
	for _, p := range paths {
		var lsn uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "snap-%016x.fsnap", &lsn); err != nil {
			s.warnf("ignoring unrecognized snapshot file %s", p)
			continue
		}
		out = append(out, snapFile{path: p, lsn: lsn})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lsn < out[j].lsn })
	return out
}

// loadLatestSnapshot restores the newest complete, checksum-valid
// snapshot into reg, falling back across damaged ones. Returns the
// restored LSN (0 when starting empty) and the entry count.
func (s *Store) loadLatestSnapshot(reg *registry.Registry, st *RecoveryStats) (uint64, int, error) {
	snaps := s.listSnapshots()
	for i := len(snaps) - 1; i >= 0; i-- {
		lsn, entries, versions, err := parseSnapshotFile(snaps[i].path)
		if err != nil {
			s.warnf("snapshot %s unusable (%v); falling back", snaps[i].path, err)
			continue
		}
		if lsn != snaps[i].lsn {
			s.warnf("snapshot %s claims lsn %d, name says %d; falling back", snaps[i].path, lsn, snaps[i].lsn)
			continue
		}
		installed := 0
		reg.SeedVersions(versions)
		for _, e := range entries {
			var ierr error
			switch e.kind {
			case entryKindProgram:
				_, ierr = reg.RestoreProgram(e.name, e.payload, e.sourceBytes, e.version)
			case entryKindSpec:
				var doc *specio.Document
				doc, ierr = specio.DecodeDocument(e.payload)
				if ierr == nil {
					_, ierr = reg.RestoreSpecDoc(e.name, doc, e.sourceBytes, e.version)
				}
			default:
				ierr = fmt.Errorf("unknown entry kind %d", e.kind)
			}
			if ierr != nil {
				s.warnf("snapshot entry %q unrecoverable: %v", e.name, ierr)
				continue
			}
			installed++
		}
		return lsn, installed, nil
	}
	return 0, 0, nil
}

// NewestSnapshot reports the newest snapshot file on disk and the LSN it
// covers — what a primary serves to a bootstrapping replica.
func (s *Store) NewestSnapshot() (lsn uint64, path string, ok bool) {
	snaps := s.listSnapshots()
	if len(snaps) == 0 {
		return 0, "", false
	}
	newest := snaps[len(snaps)-1]
	return newest.lsn, newest.path, true
}

// InspectSnapshot validates raw snapshot bytes without touching any
// registry, returning the LSN the snapshot covers and the names of the
// entries it holds. Replicas call it before installing a downloaded
// snapshot, and use the name set to drop catalog entries the primary
// deleted while the replica was away.
func InspectSnapshot(raw []byte) (lsn uint64, names []string, err error) {
	lsn, entries, _, err := parseSnapshot(bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	names = make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.name)
	}
	return lsn, names, nil
}

// InstallSnapshot validates raw snapshot bytes and writes them into dir
// under the canonical snapshot name, fsyncing file and directory — the
// bootstrap half of replication, run before Open/Recover adopt the
// directory. A crash mid-install leaves either no new file or a complete
// one, never a half-written snapshot recovery would have to distrust.
func InstallSnapshot(dir string, raw []byte) (lsn uint64, err error) {
	lsn, _, _, err = parseSnapshot(bytes.NewReader(raw))
	if err != nil {
		return 0, fmt.Errorf("store: refusing to install snapshot: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	final := filepath.Join(dir, fmt.Sprintf("snap-%016x.fsnap", lsn))
	if err := os.Rename(tmp.Name(), final); err != nil {
		return 0, err
	}
	return lsn, syncDir(dir)
}

// parseSnapshotFile reads and validates a whole snapshot without touching
// any registry — all-or-nothing, so a torn file never half-restores.
func parseSnapshotFile(path string) (lsn uint64, entries []snapEntry, versions map[string]uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, nil, err
	}
	defer f.Close()
	return parseSnapshot(f)
}

// parseSnapshot reads and validates a whole snapshot stream.
func parseSnapshot(r io.Reader) (lsn uint64, entries []snapEntry, versions map[string]uint64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)

	rec, err := wire.ReadRecord(br)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("meta record: %w", err)
	}
	lsn, entryCount, versions, err := parseSnapMeta(rec)
	if err != nil {
		return 0, nil, nil, err
	}
	for {
		rec, rerr := wire.ReadRecord(br)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF) {
				return 0, nil, nil, fmt.Errorf("%w: snapshot has no end record", wire.ErrCorrupt)
			}
			return 0, nil, nil, rerr
		}
		if len(rec) == 0 {
			return 0, nil, nil, fmt.Errorf("%w: empty record", wire.ErrCorrupt)
		}
		switch rec[0] {
		case snapRecEnd:
			if uint64(len(entries)) != entryCount {
				return 0, nil, nil, fmt.Errorf("%w: snapshot has %d entries, meta says %d",
					wire.ErrCorrupt, len(entries), entryCount)
			}
			return lsn, entries, versions, nil
		case snapRecEntry:
			e, perr := parseSnapEntry(rec)
			if perr != nil {
				return 0, nil, nil, perr
			}
			entries = append(entries, e)
		default:
			return 0, nil, nil, fmt.Errorf("%w: unknown snapshot record type %d", wire.ErrCorrupt, rec[0])
		}
	}
}

// parseSnapMeta decodes a meta record: the LSN the snapshot covers, how
// many entry records follow, and the version counters.
func parseSnapMeta(rec []byte) (lsn, entryCount uint64, versions map[string]uint64, err error) {
	d := wire.NewDecoder(rec)
	if d.Byte() != snapRecMeta {
		return 0, 0, nil, fmt.Errorf("%w: missing meta record", wire.ErrCorrupt)
	}
	if fv := d.Uvarint(); d.Err() == nil && fv != snapFormatVersion {
		return 0, 0, nil, fmt.Errorf("unsupported snapshot format version %d", fv)
	}
	lsn = d.Uvarint()
	entryCount = d.Uvarint()
	versionCount := d.Uvarint()
	// The counts come from bytes another process wrote. A name/version pair
	// takes at least two bytes of this record, and every entry's name has a
	// version (the registry's version map outlives removals), so larger
	// counts are not a writer's: refuse them before one sizes the map.
	if versionCount > uint64(d.Remaining())/2 || entryCount > versionCount {
		d.Fail("meta record of %d bytes claims %d entries and %d versions", len(rec), entryCount, versionCount)
	}
	if err := d.Err(); err != nil {
		return 0, 0, nil, err
	}
	versions = make(map[string]uint64, versionCount)
	for i := uint64(0); i < versionCount && d.Err() == nil; i++ {
		name := d.Str()
		versions[name] = d.Uvarint()
	}
	if err := d.Err(); err != nil {
		return 0, 0, nil, err
	}
	return lsn, entryCount, versions, nil
}

// parseSnapEntry decodes an entry record; the caller has checked its tag.
func parseSnapEntry(rec []byte) (snapEntry, error) {
	d := wire.NewDecoder(rec)
	d.Byte()
	e := snapEntry{name: d.Str(), kind: d.Byte(), version: d.Uvarint(), sourceBytes: d.Size()}
	e.payload = bytes.Clone(d.Rest())
	if err := d.Err(); err != nil {
		return snapEntry{}, fmt.Errorf("entry record: %w", err)
	}
	return e, nil
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
