package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"funcdb/internal/registry"
	"funcdb/internal/wire"
)

// A WAL segment is a stream of wire records, one per mutation, each payload
// as wire.EncodeMutation lays it out.

// replayWAL applies every journaled mutation with LSN above snapLSN to
// reg, in order. A torn final record is truncated away; a corrupted record
// stops replay at the last valid one, truncates the rest of that segment
// and quarantines any later segments — each healed condition is logged,
// never fatal. Returns the highest LSN applied or skipped.
func (s *Store) replayWAL(reg *registry.Registry, snapLSN uint64, st *RecoveryStats) (uint64, error) {
	segs := s.listSegments()
	last := uint64(0)
	for i, seg := range segs {
		stop, lastInSeg, err := s.replaySegment(reg, seg, snapLSN, st)
		if err != nil {
			return last, err
		}
		if lastInSeg > last {
			last = lastInSeg
		}
		if stop {
			// The segment lost its tail; anything after it is unreachable
			// without risking a gap in the mutation order.
			for _, later := range segs[i+1:] {
				q := later.path + ".orphan"
				if err := os.Rename(later.path, q); err != nil {
					s.warnf("failed to quarantine %s: %v", later.path, err)
				} else {
					s.warnf("quarantined WAL segment %s (unreachable past a corrupted record)", later.path)
				}
			}
			break
		}
	}
	return last, nil
}

// replaySegment replays one segment file. It reports stop=true when the
// segment was cut short (torn tail or corruption) — recovery must not read
// any later segment in that case.
func (s *Store) replaySegment(reg *registry.Registry, seg segment, snapLSN uint64, st *RecoveryStats) (stop bool, last uint64, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return false, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var good int64 // offset just past the last well-formed record
	for {
		rec, rerr := wire.ReadRecord(br)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return false, last, nil // clean end
			}
			if errors.Is(rerr, io.ErrUnexpectedEOF) {
				s.warnf("torn record at end of %s; truncating to %d bytes", seg.path, good)
			} else {
				s.warnf("corrupt record in %s at offset %d (%v); truncating to last valid record", seg.path, good, rerr)
			}
			return true, last, s.truncateSegment(seg.path, good)
		}
		lsn, m, derr := wire.DecodeMutation(rec)
		if derr != nil {
			s.warnf("undecodable record in %s at offset %d (%v); truncating to last valid record", seg.path, good, derr)
			return true, last, s.truncateSegment(seg.path, good)
		}
		good += int64(len(rec)) + 8
		last = lsn
		if lsn <= snapLSN {
			st.Skipped++
			continue
		}
		if aerr := reg.ApplyAt(m); aerr != nil {
			// The mutation journaled successfully once, so this is a
			// logic-level surprise (e.g. an extend whose base put was
			// dropped by an earlier truncation). Keep going: dropping one
			// mutation beats refusing to serve the rest of the catalog.
			s.warnf("replay of %s %q (lsn %d) failed: %v", m.Op, m.Name, lsn, aerr)
			continue
		}
		st.Replayed++
	}
}

// truncateSegment cuts the file at off, discarding the unreadable tail.
func (s *Store) truncateSegment(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("store: truncate %s: %w", path, err)
	}
	return f.Sync()
}
