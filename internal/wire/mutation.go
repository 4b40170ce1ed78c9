package wire

import (
	"bytes"
	"fmt"
)

// Op discriminates catalog mutations for observers and replay.
type Op uint8

const (
	// OpPut publishes a new entry compiled from Payload (program source or
	// a spec document, sniffed exactly like Put).
	OpPut Op = 1
	// OpExtend adds the ground facts in Payload to a program entry,
	// producing a new version of the same database.
	OpExtend Op = 2
	// OpDelete removes Name from the catalog.
	OpDelete Op = 3
)

// String names the operation for logs.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpExtend:
		return "extend"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Mutation describes one committed (or committing) catalog change. It is
// self-contained: replaying the same sequence of mutations into a fresh
// registry reproduces the same entries with the same versions, which is
// what the durability layer's write-ahead log relies on.
type Mutation struct {
	Op   Op
	Name string
	// Version is the version the mutation produces (0 for OpDelete).
	Version uint64
	// Payload is the uploaded artifact (OpPut) or the facts source text
	// (OpExtend); nil for OpDelete.
	Payload []byte
}

// EncodeMutation renders m, journaled at sequence number lsn, as one WAL
// record payload — the bytes a journal appends, a cursor delivers and a
// replication frame carries:
//
//	byte    op
//	uvarint lsn           log sequence number, 1-based
//	uvarint version       version the mutation produced (0 for delete)
//	uvarint len + bytes   name
//	uvarint len + bytes   payload (program/spec upload or facts source)
func EncodeMutation(lsn uint64, m Mutation) []byte {
	e := NewEncoder(byte(m.Op), 32+len(m.Name)+len(m.Payload))
	e.Uvarint(lsn)
	e.Uvarint(m.Version)
	e.Str(m.Name)
	e.Bytes(m.Payload)
	return e.Payload()
}

// DecodeMutation parses a payload produced by EncodeMutation into its
// sequence number and mutation. The mutation's Payload is a copy, nil when
// empty.
func DecodeMutation(rec []byte) (uint64, Mutation, error) {
	d := NewDecoder(rec)
	m := Mutation{Op: Op(d.Byte())}
	lsn := d.Uvarint()
	m.Version = d.Uvarint()
	m.Name = d.Str()
	if p := d.Bytes(); len(p) > 0 {
		m.Payload = bytes.Clone(p)
	}
	d.Done()
	switch m.Op {
	case OpPut, OpExtend, OpDelete:
	default:
		d.Fail("unknown op %d", m.Op)
	}
	if err := d.Err(); err != nil {
		return 0, Mutation{}, fmt.Errorf("WAL record: %w", err)
	}
	return lsn, m, nil
}

// PeekLSN extracts just the sequence number from a WAL record payload, so
// a cursor can position itself without decoding whole records.
func PeekLSN(rec []byte) (uint64, error) {
	d := NewDecoder(rec)
	d.Byte()
	lsn := d.Uvarint()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("WAL record: %w", err)
	}
	return lsn, nil
}
