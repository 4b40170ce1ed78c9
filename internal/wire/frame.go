package wire

import "fmt"

// Replication stream frames. The WAL endpoint ships each journaled
// mutation — and, while the replica is caught up, periodic heartbeats —
// as one framed record per WriteRecord. Every frame carries the
// primary's newest LSN at send time, so a replica can compute its lag
// from any frame, and a send-time millisecond clock for the lag-in-time
// gauge.
const (
	// FrameMutation carries one WAL record payload.
	FrameMutation byte = 1
	// FrameHeartbeat carries only the stream header; the primary sends
	// one when a caught-up stream has been idle for a heartbeat period.
	FrameHeartbeat byte = 2
)

// Frame is one decoded replication stream frame.
type Frame struct {
	Kind        byte
	PrimaryLast uint64 // primary's newest journaled LSN at send time
	TSMillis    uint64 // primary's wall clock at send time, Unix ms
	Record      []byte // WAL record payload; nil for heartbeats
}

// EncodeFrame renders a frame as one record payload for WriteRecord:
// the kind byte, the two uvarint clocks, then the WAL record unprefixed.
func EncodeFrame(f Frame) []byte {
	e := NewEncoder(f.Kind, 20+len(f.Record))
	e.Uvarint(f.PrimaryLast)
	e.Uvarint(f.TSMillis)
	e.Raw(f.Record)
	return e.Payload()
}

// DecodeFrame parses a payload produced by EncodeFrame. A mutation
// frame's Record aliases rec.
func DecodeFrame(rec []byte) (Frame, error) {
	d := NewDecoder(rec)
	f := Frame{Kind: d.Byte()}
	f.PrimaryLast = d.Uvarint()
	f.TSMillis = d.Uvarint()
	switch f.Kind {
	case FrameMutation:
		if f.Record = d.Rest(); len(f.Record) == 0 {
			d.Fail("mutation frame without record")
		}
	case FrameHeartbeat:
		d.Done()
	default:
		d.Fail("unknown frame kind %d", f.Kind)
	}
	if err := d.Err(); err != nil {
		return Frame{}, fmt.Errorf("stream frame: %w", err)
	}
	return f, nil
}
