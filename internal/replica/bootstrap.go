package replica

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"funcdb/internal/api"
	"funcdb/internal/obs"
	"funcdb/internal/store"
	"funcdb/internal/wire"
)

// bootstrap brings an unopened replica to a recovered local store. A
// fresh data directory is seeded with the primary's newest snapshot
// first, so the existing recovery path — load newest snapshot, replay the
// journal tail — is the whole bootstrap; a directory that already holds
// data simply recovers and resumes from its own position.
func (r *Replica) bootstrap(ctx context.Context) error {
	empty, err := dirEmpty(r.opts.Store.Dir)
	if err != nil {
		return err
	}
	if empty {
		m, raw, err := r.fetchSnapshot(ctx)
		if err != nil {
			return err
		}
		if len(raw) > 0 {
			if _, err := store.InstallSnapshot(r.opts.Store.Dir, raw); err != nil {
				return err
			}
		}
		r.logf("replica: bootstrap snapshot at lsn %d (%d bytes; primary at lsn %d)",
			m.SnapshotLSN, len(raw), m.LastLSN)
	}
	return r.openStore()
}

// rebootstrap re-seeds a running replica whose position the primary can
// no longer serve. With wipe=false (the primary compacted past our
// cursor) the newer snapshot simply outranks everything local: recovery
// loads it and skips every older journal record. With wipe=true (the
// primary's history diverged below ours) the local journal is deleted
// first — its records describe a history that no longer exists. Either
// way, catalog entries absent from the new snapshot are dropped without
// journaling; the primary's journal is the authority on deletes.
func (r *Replica) rebootstrap(ctx context.Context, wipe bool) error {
	m, raw, err := r.fetchSnapshot(ctx)
	if err != nil {
		return err // keep the current store; we can still serve stale reads
	}
	if r.st != nil {
		if err := r.st.Close(); err != nil {
			return err
		}
		r.st = nil
	}
	r.bootstrapped.Store(false)
	if wipe {
		if err := removeStoreFiles(r.opts.Store.Dir); err != nil {
			return err
		}
	}
	var keep map[string]bool
	if len(raw) > 0 {
		_, names, err := store.InspectSnapshot(raw)
		if err != nil {
			return fmt.Errorf("primary snapshot failed verification: %w", err)
		}
		keep = make(map[string]bool, len(names))
		for _, n := range names {
			keep[n] = true
		}
		if _, err := store.InstallSnapshot(r.opts.Store.Dir, raw); err != nil {
			return err
		}
	}
	for _, e := range r.reg.List() {
		if !keep[e.Name] {
			r.reg.DropLocal(e.Name)
			r.logf("replica: dropped %q (absent from primary snapshot)", e.Name)
		}
	}
	r.logf("replica: re-bootstrap snapshot at lsn %d (primary at lsn %d)", m.SnapshotLSN, m.LastLSN)
	return r.openStore()
}

// openStore opens and recovers the local journal, completing (re)boot.
func (r *Replica) openStore() error {
	opts := r.opts.Store
	// The apply loop takes snapshots itself between records; the store's
	// background trigger could otherwise capture a catalog that has
	// journaled a record it has not yet applied.
	opts.SnapshotEvery = 0
	if opts.Logf == nil {
		opts.Logf = r.logf
	}
	st, err := store.Open(opts)
	if err != nil {
		return err
	}
	stats, err := st.Recover(r.reg)
	if err != nil {
		st.Close()
		return err
	}
	r.st = st
	r.applied.Store(st.LastLSN())
	r.journalLSN.Store(st.LastLSN())
	r.sinceSnap = 0
	r.bootstrapped.Store(true)
	r.logf("replica: recovered %d database(s) (snapshot lsn %d, %d records replayed); resuming after lsn %d",
		stats.Entries, stats.SnapshotLSN, stats.Replayed, r.applied.Load())
	return nil
}

// fetchSnapshot downloads the primary's snapshot with its manifest and
// verifies the byte count, so a torn transfer is rejected before install.
func (r *Replica) fetchSnapshot(ctx context.Context) (wire.Manifest, []byte, error) {
	ctx, sp := obs.StartSpan(ctx, "fetch_snapshot")
	defer sp.End()
	resp, err := r.opts.HTTP.Stream(ctx, api.Request{Method: http.MethodGet, URL: r.opts.Primary + "/v1/repl/snapshot"})
	if err != nil {
		return wire.Manifest{}, nil, fmt.Errorf("snapshot request: %s", api.Detail(err))
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	rec, err := wire.ReadRecord(br)
	if err != nil {
		return wire.Manifest{}, nil, fmt.Errorf("snapshot manifest: %w", err)
	}
	m, err := wire.DecodeManifest(rec)
	if err != nil {
		return wire.Manifest{}, nil, err
	}
	raw, err := io.ReadAll(br)
	if err != nil {
		return wire.Manifest{}, nil, err
	}
	if uint64(len(raw)) != m.SnapshotBytes {
		return wire.Manifest{}, nil, fmt.Errorf("torn snapshot transfer: got %d bytes, manifest says %d",
			len(raw), m.SnapshotBytes)
	}
	return m, raw, nil
}

// dirEmpty reports whether dir holds no store files (it may not exist).
func dirEmpty(dir string) (bool, error) {
	for _, pat := range []string{"wal-*.wal", "snap-*.fsnap"} {
		paths, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return false, err
		}
		if len(paths) > 0 {
			return false, nil
		}
	}
	return true, nil
}

// removeStoreFiles deletes the journal, snapshots and quarantined
// segments, leaving any unrelated files in the directory alone.
func removeStoreFiles(dir string) error {
	for _, pat := range []string{"wal-*.wal", "snap-*.fsnap", "*.orphan", "snap-*.tmp"} {
		paths, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return err
		}
		for _, p := range paths {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	return nil
}
