package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"funcdb/internal/wire"
)

// ErrCompacted reports a read position older than the oldest WAL record
// still on disk: compaction has retired the segments that held it, so a
// tailing reader must re-bootstrap from a snapshot instead of resuming.
var ErrCompacted = errors.New("store: position compacted away")

// Record is one journaled mutation as a cursor delivers it: the sequence
// number and the encoded payload (the bytes wire.DecodeMutation parses),
// ready to be re-framed onto a replication stream.
type Record struct {
	LSN     uint64
	Payload []byte
}

// Cursor reads journaled mutations in LSN order, following segment
// rotations and blocking (via Next's context) when it has caught up with
// the writer. A cursor is owned by one goroutine; the store may be
// appending concurrently.
type Cursor struct {
	s    *Store
	next uint64 // lowest LSN not yet delivered

	f    *os.File
	path string
}

// ReadFrom opens a cursor positioned at the first record with an LSN of at
// least from (which must be positive). It fails with ErrCompacted when
// records at that position existed but have been retired by compaction —
// the caller's state predates the log and only a snapshot can catch it up.
func (s *Store) ReadFrom(from uint64) (*Cursor, error) {
	if from == 0 {
		return nil, fmt.Errorf("store: cursor position starts at 1")
	}
	segs := s.listSegments()
	if len(segs) > 0 && from < segs[0].firstLSN {
		return nil, fmt.Errorf("%w: want lsn %d, oldest on disk is %d", ErrCompacted, from, segs[0].firstLSN)
	}
	return &Cursor{s: s, next: from}, nil
}

// Close releases the cursor's file handle.
func (c *Cursor) Close() error {
	if c.f != nil {
		err := c.f.Close()
		c.f = nil
		return err
	}
	return nil
}

// Next returns the next record. When the cursor has caught up with the
// writer it blocks until a new record is appended or ctx expires (a
// deadline is how streaming servers schedule heartbeats). Records are
// only read once the store has acknowledged them (LSN <= LastLSN), so a
// concurrent append can never hand a torn record to a cursor.
func (c *Cursor) Next(ctx context.Context) (Record, error) {
	for {
		// Grab the wakeup channel before checking the position: an append
		// between the check and the wait still closes this channel.
		wake := c.s.appendWait()
		if c.next <= c.s.LastLSN() {
			break
		}
		select {
		case <-ctx.Done():
			return Record{}, ctx.Err()
		case <-wake:
		}
	}
	for {
		if c.f == nil {
			if err := c.open(); err != nil {
				return Record{}, err
			}
		}
		payload, err := wire.ReadRecord(c.f)
		switch {
		case err == nil:
			lsn, perr := wire.PeekLSN(payload)
			if perr != nil {
				return Record{}, perr
			}
			if lsn < c.next {
				continue // positioning: records below the requested start
			}
			c.next = lsn + 1
			return Record{LSN: lsn, Payload: payload}, nil
		case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
			// End of this segment. The wanted record is acknowledged, so it
			// lives in a later segment (the writer rotated); move on. A
			// partial tail here can only be a record above LastLSN that the
			// writer is still producing, never the acknowledged one.
			if err := c.advance(); err != nil {
				return Record{}, err
			}
		default:
			return Record{}, err
		}
	}
}

// open positions the cursor at the newest segment that may contain c.next.
func (c *Cursor) open() error {
	segs := c.s.listSegments()
	if len(segs) == 0 {
		return fmt.Errorf("store: no WAL segments for acknowledged lsn %d", c.next)
	}
	if c.next < segs[0].firstLSN {
		return fmt.Errorf("%w: want lsn %d, oldest on disk is %d", ErrCompacted, c.next, segs[0].firstLSN)
	}
	pick := segs[0]
	for _, seg := range segs[1:] {
		if seg.firstLSN <= c.next {
			pick = seg
		}
	}
	f, err := os.Open(pick.path)
	if err != nil {
		return err
	}
	c.f = f
	c.path = pick.path
	return nil
}

// advance moves to the segment after the current one.
func (c *Cursor) advance() error {
	cur := c.path
	if err := c.Close(); err != nil {
		return err
	}
	segs := c.s.listSegments()
	var curFirst uint64
	if _, err := fmt.Sscanf(filepath.Base(cur), "wal-%016x.wal", &curFirst); err != nil {
		return fmt.Errorf("store: unparseable segment name %s", cur)
	}
	for _, seg := range segs {
		if seg.firstLSN > curFirst {
			f, err := os.Open(seg.path)
			if err != nil {
				return err
			}
			c.f = f
			c.path = seg.path
			return nil
		}
	}
	return fmt.Errorf("store: no segment after %s holds acknowledged lsn %d", cur, c.next)
}
