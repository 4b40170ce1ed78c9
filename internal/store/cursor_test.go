package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/registry"
	"funcdb/internal/wire"
)

// openEmpty opens and recovers a store over a fresh registry.
func openEmpty(t *testing.T, dir string, opts Options) (*Store, *registry.Registry) {
	t.Helper()
	opts.Dir = dir
	opts.Logf = t.Logf
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(core.Options{})
	if _, err := s.Recover(reg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, reg
}

// appendN journals n synthetic put mutations via the replicated-append API.
func appendN(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn := s.LastLSN() + 1
		m := wire.Mutation{Op: wire.OpPut, Name: fmt.Sprintf("db%04d", lsn), Version: 1,
			Payload: []byte(fmt.Sprintf("P(c%d).", lsn))}
		if err := s.AppendReplicated(lsn, m); err != nil {
			t.Fatalf("append %d: %v", lsn, err)
		}
	}
}

func TestCursorReadsInOrder(t *testing.T) {
	s, _ := openEmpty(t, t.TempDir(), Options{Fsync: FsyncNever})
	appendN(t, s, 25)

	cur, err := s.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ctx := context.Background()
	for want := uint64(1); want <= 25; want++ {
		rec, err := cur.Next(ctx)
		if err != nil {
			t.Fatalf("next %d: %v", want, err)
		}
		if rec.LSN != want {
			t.Fatalf("lsn = %d, want %d", rec.LSN, want)
		}
		lsn, m, err := wire.DecodeMutation(rec.Payload)
		if err != nil {
			t.Fatalf("decode %d: %v", want, err)
		}
		if lsn != want || m.Name != fmt.Sprintf("db%04d", want) || m.Op != wire.OpPut {
			t.Fatalf("record %d decodes to lsn=%d name=%q op=%v", want, lsn, m.Name, m.Op)
		}
	}
}

func TestCursorStartsMidLog(t *testing.T) {
	s, _ := openEmpty(t, t.TempDir(), Options{Fsync: FsyncNever})
	appendN(t, s, 10)
	cur, err := s.ReadFrom(7)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	rec, err := cur.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.LSN != 7 {
		t.Fatalf("first record = %d, want 7", rec.LSN)
	}
}

func TestCursorLongPollWakesOnAppend(t *testing.T) {
	s, _ := openEmpty(t, t.TempDir(), Options{Fsync: FsyncNever})
	appendN(t, s, 1)
	cur, err := s.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Caught up: Next must block until a concurrent append arrives.
	got := make(chan Record, 1)
	errc := make(chan error, 1)
	go func() {
		rec, err := cur.Next(context.Background())
		if err != nil {
			errc <- err
			return
		}
		got <- rec
	}()
	time.Sleep(20 * time.Millisecond) // let the reader reach the wait
	appendN(t, s, 1)
	select {
	case rec := <-got:
		if rec.LSN != 2 {
			t.Fatalf("woke with lsn %d, want 2", rec.LSN)
		}
	case err := <-errc:
		t.Fatalf("next: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("cursor never woke after append")
	}
}

func TestCursorDeadlineWhileCaughtUp(t *testing.T) {
	s, _ := openEmpty(t, t.TempDir(), Options{Fsync: FsyncNever})
	appendN(t, s, 1)
	cur, err := s.ReadFrom(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := cur.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caught-up Next = %v, want deadline exceeded", err)
	}
}

func TestCursorFollowsRotation(t *testing.T) {
	s, reg := openEmpty(t, t.TempDir(), Options{Fsync: FsyncNever})
	// Real registry mutations so Snapshot can capture compilable state.
	if _, err := reg.PutProgram("even", []byte("Even(0). Even(T) -> Even(T+2).")); err != nil {
		t.Fatal(err)
	}
	cur, err := s.ReadFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if rec, err := cur.Next(context.Background()); err != nil || rec.LSN != 1 {
		t.Fatalf("next = %v, %v", rec, err)
	}
	// Snapshot rotates the active segment; later records land in a new file.
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ExtendFacts("even", []byte("Even(101).")); err != nil {
		t.Fatal(err)
	}
	rec, err := cur.Next(context.Background())
	if err != nil {
		t.Fatalf("next across rotation: %v", err)
	}
	if rec.LSN != 2 {
		t.Fatalf("lsn after rotation = %d, want 2", rec.LSN)
	}
	if _, m, err := wire.DecodeMutation(rec.Payload); err != nil || m.Op != wire.OpExtend {
		t.Fatalf("decoded %v, %v; want extend", m, err)
	}
}

func TestReadFromCompacted(t *testing.T) {
	s, reg := openEmpty(t, t.TempDir(), Options{Fsync: FsyncNever})
	if _, err := reg.PutProgram("even", []byte("Even(0). Even(T) -> Even(T+2).")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := reg.ExtendFacts("even", []byte(fmt.Sprintf("Even(%d).", 100+2*i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	// Two snapshots+rotations retire the earliest segments; position 1 is gone.
	if _, err := s.ReadFrom(1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadFrom(1) = %v, want ErrCompacted", err)
	}
	// The tail is still reachable.
	cur, err := s.ReadFrom(s.LastLSN() + 1)
	if err != nil {
		t.Fatalf("ReadFrom(tail): %v", err)
	}
	cur.Close()
}

func TestAppendReplicatedRejectsGap(t *testing.T) {
	s, _ := openEmpty(t, t.TempDir(), Options{Fsync: FsyncNever})
	appendN(t, s, 3)
	err := s.AppendReplicated(7, wire.Mutation{Op: wire.OpDelete, Name: "x"})
	if err == nil {
		t.Fatal("gap append accepted")
	}
}

// TestSnapshotShipping round-trips a snapshot through the byte-level
// helpers a replication bootstrap uses: read the newest snapshot file on
// the primary, inspect it, install it into an empty replica dir, recover.
func TestSnapshotShipping(t *testing.T) {
	s, reg := openEmpty(t, t.TempDir(), Options{Fsync: FsyncNever})
	if _, err := reg.PutProgram("even", []byte("Even(0). Even(T) -> Even(T+2).")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PutProgram("odd", []byte("Odd(1). Odd(T) -> Odd(T+2).")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	lsn, path, ok := s.NewestSnapshot()
	if !ok || lsn != 2 {
		t.Fatalf("NewestSnapshot = %d, %q, %v; want lsn 2", lsn, path, ok)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ilsn, names, err := InspectSnapshot(raw)
	if err != nil || ilsn != lsn {
		t.Fatalf("InspectSnapshot = %d, %v, %v; want lsn %d", ilsn, names, err, lsn)
	}
	if len(names) != 2 || names[0] != "even" && names[1] != "even" {
		t.Fatalf("snapshot names = %v, want even+odd", names)
	}

	dir := t.TempDir()
	if got, err := InstallSnapshot(dir, raw); err != nil || got != lsn {
		t.Fatalf("InstallSnapshot = %d, %v; want lsn %d", got, err, lsn)
	}
	s2, reg2 := openEmpty(t, dir, Options{Fsync: FsyncNever})
	if s2.LastLSN() != lsn {
		t.Fatalf("replica LastLSN = %d, want %d", s2.LastLSN(), lsn)
	}
	e, ok := reg2.Get("odd")
	if !ok {
		t.Fatal("odd missing after install+recover")
	}
	if yes, err := e.Ask(context.Background(), "?- Odd(41)."); err != nil || !yes {
		t.Fatalf("Odd(41) = %v, %v; want true", yes, err)
	}
	if _, err := InstallSnapshot(t.TempDir(), raw[:len(raw)/2]); err == nil {
		t.Fatal("installed a truncated snapshot")
	}
}

// TestReplicatedLogRecovers round-trips a replicated journal through the
// normal recovery path: what a replica journals, a restart replays.
func TestReplicatedLogRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _ := openEmpty(t, dir, Options{})
	src := "Even(0). Even(T) -> Even(T+2)."
	if err := s.AppendReplicated(1, wire.Mutation{Op: wire.OpPut, Name: "even", Version: 1, Payload: []byte(src)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendReplicated(2, wire.Mutation{Op: wire.OpExtend, Name: "even", Version: 2, Payload: []byte("Even(33).")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	reg := registry.New(core.Options{})
	stats, err := s2.Recover(reg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2", stats.Replayed)
	}
	e, ok := reg.Get("even")
	if !ok || e.Version != 2 {
		t.Fatalf("entry = %v (ok=%v), want version 2", e, ok)
	}
	if yes, err := e.Ask(context.Background(), "?- Even(33)."); err != nil || !yes {
		t.Fatalf("Even(33) = %v, %v; want true", yes, err)
	}
}
