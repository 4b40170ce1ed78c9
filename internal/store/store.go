// Package store is the durability engine behind the fdbd daemon: an
// append-only write-ahead log of catalog mutations plus periodic binary
// snapshots, so a registry survives a crash with a verified, byte-checked
// catalog.
//
// The paper's specification is "finite and explicit … once it is computed,
// the original deductive rules may be forgotten" — exactly the artifact a
// server should persist and recover rather than recompile. The store
// journals every registry mutation (put / extend-facts / delete) as a
// checksummed record before it commits (write-ahead order, via the
// registry's observer hook), checkpoints the whole catalog (spec entries as
// specio binary documents), and on startup loads the latest valid snapshot,
// replays the log tail, truncates a torn final record, and quarantines
// anything beyond a corrupted one — with a logged warning, never a panic or
// silent loss. Every file is a stream of package wire's CRC-framed records.
//
// On-disk layout inside the data directory:
//
//	wal-<firstLSN>.wal    one wire.EncodeMutation record per mutation
//	snap-<lsn>.fsnap      catalog checkpoint covering mutations 1..lsn
//
// Every mutation carries a log sequence number (LSN, starting at 1). A
// snapshot records the LSN it covers; recovery replays only records with a
// larger LSN, and compaction retires segments wholly below it.
package store

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/registry"
	"funcdb/internal/wire"
)

// Fsync policies for the write-ahead log.
const (
	// FsyncAlways syncs after every record: an acknowledged mutation is on
	// disk before the client sees the response. The default.
	FsyncAlways = "always"
	// FsyncInterval syncs on a background tick (100ms): bounded loss
	// window, much higher throughput.
	FsyncInterval = "interval"
	// FsyncNever leaves syncing to the OS page cache.
	FsyncNever = "never"
)

// fsyncTick is the FsyncInterval flush period.
const fsyncTick = 100 * time.Millisecond

// Options configures a store.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// Fsync is one of FsyncAlways (default when empty), FsyncInterval,
	// FsyncNever.
	Fsync string
	// SnapshotEvery triggers a background snapshot after that many
	// journaled mutations (0 disables automatic snapshots; explicit
	// Snapshot calls still work).
	SnapshotEvery int
	// Logf receives recovery warnings and compaction notices; defaults to
	// the process-wide structured logger (slog) at Warn level.
	Logf func(format string, args ...any)
}

// Store journals catalog mutations and checkpoints catalog state. Create
// with Open, wire with Recover, stop with Close.
type Store struct {
	opts Options
	logf func(string, ...any)

	// mu guards the active segment and LSN state. The registry calls the
	// observer under its own writer lock, so observer appends are already
	// serialized; mu additionally fences Snapshot's rotation and Close.
	mu       sync.Mutex
	wal      *os.File
	walPath  string
	walSize  int64 // bytes in the active segment
	nextLSN  uint64
	snapLSN  uint64 // highest LSN covered by a snapshot
	dirty    bool   // unsynced appends (FsyncInterval)
	closed   bool
	attached *registry.Registry

	// Gauges, atomics so /metrics never takes mu.
	mWALBytes   atomic.Int64 // bytes across all segments
	mSinceSnap  atomic.Int64 // records journaled since the last snapshot
	mRecoveryUS atomic.Int64 // duration of the last recovery, microseconds
	mSnapshots  atomic.Int64 // snapshots written over this store's lifetime
	mWarnings   atomic.Int64 // recovery/compaction warnings logged

	// snapOnce serializes whole snapshot operations (a background snapshot
	// racing the shutdown snapshot) without blocking appends.
	snapOnce sync.Mutex

	// notify is closed and replaced after every append, waking tailing
	// cursors (guarded by mu).
	notify chan struct{}

	snapCh chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup
}

// Metrics is a point-in-time view of the store's gauges.
type Metrics struct {
	// WALBytes is the total size of all live WAL segments.
	WALBytes int64
	// RecordsSinceSnapshot counts mutations journaled after the newest
	// snapshot — the replay debt a crash would incur.
	RecordsSinceSnapshot int64
	// LastRecoveryMicros is how long the last Recover took.
	LastRecoveryMicros int64
	// Snapshots counts snapshots written since Open.
	Snapshots int64
	// Warnings counts corruption/replay warnings logged.
	Warnings int64
}

// Metrics returns the current gauges.
func (s *Store) Metrics() Metrics {
	return Metrics{
		WALBytes:             s.mWALBytes.Load(),
		RecordsSinceSnapshot: s.mSinceSnap.Load(),
		LastRecoveryMicros:   s.mRecoveryUS.Load(),
		Snapshots:            s.mSnapshots.Load(),
		Warnings:             s.mWarnings.Load(),
	}
}

// Gauges renders the metrics in the flat name→value form the daemon's
// /metrics endpoint exposes.
func (s *Store) Gauges() map[string]int64 {
	m := s.Metrics()
	return map[string]int64{
		"wal_bytes":                  m.WALBytes,
		"wal_records_since_snapshot": m.RecordsSinceSnapshot,
		"recovery_last_us":           m.LastRecoveryMicros,
		"snapshots_total":            m.Snapshots,
		"store_warnings_total":       m.Warnings,
	}
}

// RecoveryStats summarizes one Recover run.
type RecoveryStats struct {
	// SnapshotLSN is the LSN of the snapshot that seeded the catalog (0 if
	// recovery started from an empty catalog).
	SnapshotLSN uint64
	// Entries is the number of catalog entries restored from the snapshot.
	Entries int
	// Replayed counts WAL records applied after the snapshot.
	Replayed int
	// Skipped counts WAL records already covered by the snapshot.
	Skipped int
	// Warnings counts anomalies (torn tail, corrupt record, replay
	// failure) that were logged and healed.
	Warnings int
	// Duration is the wall time of the recovery.
	Duration time.Duration
}

// Open prepares a store over dir, creating it if needed. No file is read
// until Recover.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	switch opts.Fsync {
	case "":
		opts.Fsync = FsyncAlways
	case FsyncAlways, FsyncInterval, FsyncNever:
	default:
		return nil, fmt.Errorf("store: unknown fsync policy %q (want %s, %s or %s)",
			opts.Fsync, FsyncAlways, FsyncInterval, FsyncNever)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(format string, args ...any) {
			slog.Warn(fmt.Sprintf(format, args...), "component", "store")
		}
	}
	return &Store{
		opts:   opts,
		logf:   logf,
		notify: make(chan struct{}),
		snapCh: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}, nil
}

func (s *Store) warnf(format string, args ...any) {
	s.mWarnings.Add(1)
	s.logf("store: "+format, args...)
}

// Recover loads the latest valid snapshot into reg, replays the WAL tail,
// heals torn or corrupted log state, attaches the store as reg's mutation
// observer and starts the background snapshot/fsync loops. It must be
// called exactly once, before the registry takes traffic.
func (s *Store) Recover(reg *registry.Registry) (RecoveryStats, error) {
	start := time.Now()
	var st RecoveryStats

	snapLSN, entries, err := s.loadLatestSnapshot(reg, &st)
	if err != nil {
		return st, err
	}
	st.SnapshotLSN = snapLSN
	st.Entries = entries

	lastLSN, err := s.replayWAL(reg, snapLSN, &st)
	if err != nil {
		return st, err
	}
	if lastLSN < snapLSN {
		lastLSN = snapLSN
	}

	s.mu.Lock()
	s.snapLSN = snapLSN
	s.nextLSN = lastLSN + 1
	err = s.openActiveSegmentLocked()
	if err == nil {
		s.mWALBytes.Store(s.scanWALBytesLocked())
		s.mSinceSnap.Store(int64(lastLSN - snapLSN))
		s.attached = reg
	}
	s.mu.Unlock()
	if err != nil {
		return st, err
	}

	reg.SetObserver(s.observe)
	s.wg.Add(1)
	go s.background()

	st.Duration = time.Since(start)
	s.mRecoveryUS.Store(st.Duration.Microseconds())
	st.Warnings = int(s.mWarnings.Load())
	return st, nil
}

// observe is the registry observer: it journals the mutation before the
// registry commits it. Called under the registry writer lock, in commit
// order.
func (s *Store) observe(m wire.Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	return s.appendMutationLocked(s.nextLSN, m)
}

// AppendReplicated journals one mutation shipped from a primary at its
// exact log sequence number, which must extend the local tail without a
// gap. Replicas call it before applying the mutation to their registry
// (write-ahead order), so the local log stays a byte-equivalent prefix of
// the primary's history and a restart resumes from the same position.
func (s *Store) AppendReplicated(lsn uint64, m wire.Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: closed")
	}
	if lsn != s.nextLSN {
		return fmt.Errorf("store: replicated record lsn %d does not extend local tail (next %d)", lsn, s.nextLSN)
	}
	return s.appendMutationLocked(lsn, m)
}

// appendMutationLocked encodes, frames and appends one mutation, advances
// the LSN, wakes tailing cursors and schedules an automatic snapshot when
// the replay debt crosses the threshold.
func (s *Store) appendMutationLocked(lsn uint64, m wire.Mutation) error {
	if err := s.appendLocked(wire.EncodeMutation(lsn, m)); err != nil {
		return err
	}
	s.nextLSN = lsn + 1
	s.mSinceSnap.Add(1)
	close(s.notify)
	s.notify = make(chan struct{})
	if s.opts.SnapshotEvery > 0 && s.mSinceSnap.Load() >= int64(s.opts.SnapshotEvery) {
		select {
		case s.snapCh <- struct{}{}:
		default:
		}
	}
	return nil
}

// LastLSN returns the sequence number of the newest journaled mutation (0
// when the log is empty). A record whose LSN is at most LastLSN is fully
// written and safe for a concurrent cursor to read.
func (s *Store) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nextLSN == 0 {
		return 0
	}
	return s.nextLSN - 1
}

// appendWait returns a channel closed by the next append. Callers must
// re-check LastLSN after acquiring the channel to avoid a missed wakeup.
func (s *Store) appendWait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.notify
}

// appendLocked writes one framed record to the active segment in a single
// write, rolling the file back to the previous boundary if the write fails
// partway so the log never accumulates a torn middle.
func (s *Store) appendLocked(rec []byte) error {
	framed, err := wire.AppendRecord(make([]byte, 0, 8+len(rec)), rec)
	if err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	n, err := s.wal.Write(framed)
	if err != nil {
		if n > 0 {
			if terr := s.wal.Truncate(s.walSize); terr != nil {
				s.warnf("failed to roll back torn append in %s: %v", s.walPath, terr)
			} else if _, serr := s.wal.Seek(s.walSize, 0); serr != nil {
				s.warnf("failed to reposition %s: %v", s.walPath, serr)
			}
		}
		return fmt.Errorf("store: append: %w", err)
	}
	s.walSize += int64(n)
	s.mWALBytes.Add(int64(n))
	if s.opts.Fsync == FsyncAlways {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: fsync: %w", err)
		}
	} else {
		s.dirty = true
	}
	return nil
}

// background runs the automatic snapshot and interval-fsync loops.
func (s *Store) background() {
	defer s.wg.Done()
	var tick <-chan time.Time
	if s.opts.Fsync == FsyncInterval {
		t := time.NewTicker(fsyncTick)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.done:
			return
		case <-s.snapCh:
			if err := s.Snapshot(); err != nil {
				s.warnf("automatic snapshot failed: %v", err)
			}
		case <-tick:
			s.mu.Lock()
			if s.dirty && !s.closed {
				if err := s.wal.Sync(); err != nil {
					s.warnf("interval fsync failed: %v", err)
				}
				s.dirty = false
			}
			s.mu.Unlock()
		}
	}
}

// Close flushes and closes the log. It does not snapshot; callers wanting
// a clean checkpoint (the daemon's graceful shutdown does) call Snapshot
// first. After Close every further mutation is refused.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	var err error
	if s.opts.Fsync != FsyncNever {
		err = s.wal.Sync()
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

// scanWALBytesLocked sums the live segment sizes.
func (s *Store) scanWALBytesLocked() int64 {
	var total int64
	for _, seg := range s.listSegments() {
		if fi, err := os.Stat(seg.path); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// segment is one WAL file, named by the first LSN it may contain.
type segment struct {
	path     string
	firstLSN uint64
}

// listSegments returns the live WAL segments sorted by first LSN.
func (s *Store) listSegments() []segment {
	paths, _ := filepath.Glob(filepath.Join(s.opts.Dir, "wal-*.wal"))
	segs := make([]segment, 0, len(paths))
	for _, p := range paths {
		var lsn uint64
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%016x.wal", &lsn); err != nil {
			s.warnf("ignoring unrecognized WAL file %s", p)
			continue
		}
		segs = append(segs, segment{path: p, firstLSN: lsn})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs
}

// openActiveSegmentLocked opens the newest segment for appending, or
// creates the first one. Recovery has already truncated any torn tail, so
// appending to the existing file is safe.
func (s *Store) openActiveSegmentLocked() error {
	segs := s.listSegments()
	var path string
	if len(segs) > 0 {
		path = segs[len(segs)-1].path
	} else {
		path = s.segmentPath(s.nextLSN)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	s.wal = f
	s.walPath = path
	s.walSize = fi.Size()
	return nil
}

func (s *Store) segmentPath(firstLSN uint64) string {
	return filepath.Join(s.opts.Dir, fmt.Sprintf("wal-%016x.wal", firstLSN))
}

func (s *Store) snapshotPath(lsn uint64) string {
	return filepath.Join(s.opts.Dir, fmt.Sprintf("snap-%016x.fsnap", lsn))
}
