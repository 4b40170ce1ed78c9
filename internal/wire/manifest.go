package wire

import "fmt"

// Manifest is the header record a replication snapshot response opens
// with: which log position the attached snapshot captures, how far the
// primary's journal had advanced when the response was produced, and how
// many raw snapshot bytes follow the manifest record on the stream. It
// rides inside the ordinary length+CRC record framing, so a replica
// detects a torn or corrupted manifest exactly like any other record.
type Manifest struct {
	// SnapshotLSN is the last mutation the snapshot bytes include.
	SnapshotLSN uint64
	// LastLSN is the primary's newest journaled mutation at send time;
	// the gap to SnapshotLSN is the tail a replica must stream.
	LastLSN uint64
	// SnapshotBytes is the exact length of the raw snapshot file that
	// follows the manifest record.
	SnapshotBytes uint64
}

// manifestTag opens a manifest payload so it cannot be confused with a
// stream frame or a document section record.
const manifestTag byte = 0x4D // 'M'

// EncodeManifest renders a manifest as one record payload, ready for
// WriteRecord: the tag, then the three fields as uvarints.
func EncodeManifest(m Manifest) []byte {
	e := NewEncoder(manifestTag, 30)
	e.Uvarint(m.SnapshotLSN)
	e.Uvarint(m.LastLSN)
	e.Uvarint(m.SnapshotBytes)
	return e.Payload()
}

// DecodeManifest parses a payload produced by EncodeManifest.
func DecodeManifest(rec []byte) (Manifest, error) {
	d := NewDecoder(rec)
	if d.Byte() != manifestTag {
		return Manifest{}, fmt.Errorf("%w: not a manifest record", ErrCorrupt)
	}
	m := Manifest{SnapshotLSN: d.Uvarint(), LastLSN: d.Uvarint(), SnapshotBytes: d.Uvarint()}
	d.Done()
	if m.LastLSN < m.SnapshotLSN {
		d.Fail("manifest last lsn %d below snapshot lsn %d", m.LastLSN, m.SnapshotLSN)
	}
	if err := d.Err(); err != nil {
		return Manifest{}, fmt.Errorf("manifest: %w", err)
	}
	return m, nil
}
