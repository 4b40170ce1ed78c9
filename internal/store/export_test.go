package store

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"funcdb/internal/wire"
)

// The snapshot record readers parseSnapMeta and parseSnapEntry replaced,
// kept verbatim (bar names, and the meta reader cut out of the stream loop
// it lived in) as the reference the differential fuzz targets in
// fuzz_test.go hold the new ones to.

func refParseSnapMeta(rec []byte) (lsn, entryCount uint64, versions map[string]uint64, err error) {
	if len(rec) == 0 || rec[0] != snapRecMeta {
		return 0, 0, nil, fmt.Errorf("%w: missing meta record", wire.ErrCorrupt)
	}
	d := rec[1:]
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(d)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", wire.ErrCorrupt)
		}
		d = d[n:]
		return v, nil
	}
	str := func() (string, error) {
		n, err := uv()
		if err != nil || uint64(len(d)) < n {
			return "", fmt.Errorf("%w: truncated string", wire.ErrCorrupt)
		}
		v := string(d[:n])
		d = d[n:]
		return v, nil
	}
	fv, err := uv()
	if err != nil {
		return 0, 0, nil, err
	}
	if fv != snapFormatVersion {
		return 0, 0, nil, fmt.Errorf("unsupported snapshot format version %d", fv)
	}
	if lsn, err = uv(); err != nil {
		return 0, 0, nil, err
	}
	entryCount, err = uv()
	if err != nil {
		return 0, 0, nil, err
	}
	versionCount, err := uv()
	if err != nil {
		return 0, 0, nil, err
	}
	if versionCount > uint64(len(d))/2 || entryCount > versionCount {
		return 0, 0, nil, fmt.Errorf("%w: meta record of %d bytes claims %d entries and %d versions",
			wire.ErrCorrupt, len(rec), entryCount, versionCount)
	}
	versions = make(map[string]uint64, versionCount)
	for i := uint64(0); i < versionCount; i++ {
		name, err := str()
		if err != nil {
			return 0, 0, nil, err
		}
		v, err := uv()
		if err != nil {
			return 0, 0, nil, err
		}
		versions[name] = v
	}
	return lsn, entryCount, versions, nil
}

func refParseSnapEntry(d []byte) (snapEntry, error) {
	bad := func(what string) (snapEntry, error) {
		return snapEntry{}, fmt.Errorf("%w: entry record: %s", wire.ErrCorrupt, what)
	}
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(d)
		if n <= 0 {
			return 0, false
		}
		d = d[n:]
		return v, true
	}
	n, ok := uv()
	if !ok || uint64(len(d)) < n {
		return bad("truncated name")
	}
	e := snapEntry{name: string(d[:n])}
	d = d[n:]
	if len(d) < 1 {
		return bad("truncated kind")
	}
	e.kind = d[0]
	d = d[1:]
	if e.version, ok = uv(); !ok {
		return bad("truncated version")
	}
	sb, ok := uv()
	if !ok {
		return bad("truncated source size")
	}
	e.sourceBytes = int(sb)
	e.payload = bytes.Clone(d)
	return e, nil
}
