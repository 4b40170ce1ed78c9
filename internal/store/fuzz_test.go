package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"funcdb/internal/wire"
)

// snapRecords returns the records of the snapshot in testdata/pr24 with the
// given tag: real meta and entry records to seed the fuzzers with.
func snapRecords(f *testing.F, tag byte) [][]byte {
	f.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "pr24", "snap-0000000000000006.fsnap"))
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for r := bytes.NewReader(raw); ; {
		rec, err := wire.ReadRecord(r)
		if err == io.EOF {
			return out
		}
		if err != nil {
			f.Fatal(err)
		}
		if rec[0] == tag {
			out = append(out, rec)
		}
	}
}

// FuzzSnapMeta holds parseSnapMeta to the meta record reader it replaced:
// both accept or both refuse, a refusal wraps wire.ErrCorrupt in both or in
// neither (a wrong format version is not corruption), and accepted records
// decode to equal values.
func FuzzSnapMeta(f *testing.F) {
	for _, rec := range snapRecords(f, snapRecMeta) {
		f.Add(rec)
	}
	f.Add([]byte{snapRecMeta, 2})
	f.Add([]byte{snapRecMeta, 1, 0, 0, 3, 1, 'a', 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		lsn, entries, versions, err := parseSnapMeta(data)
		wantLSN, wantEntries, wantVersions, wantErr := refParseSnapMeta(data)
		if (err == nil) != (wantErr == nil) || errors.Is(err, wire.ErrCorrupt) != errors.Is(wantErr, wire.ErrCorrupt) {
			t.Fatalf("%x: parseSnapMeta says %v, reference says %v", data, err, wantErr)
		}
		if err == nil && (lsn != wantLSN || entries != wantEntries || !reflect.DeepEqual(versions, wantVersions)) {
			t.Fatalf("%x: parseSnapMeta yields %d %d %v, reference %d %d %v",
				data, lsn, entries, versions, wantLSN, wantEntries, wantVersions)
		}
	})
}

// FuzzSnapEntry holds parseSnapEntry to the entry record reader it
// replaced. The one intended difference: a source size that does not fit an
// int, which the reference turned into a negative SourceBytes and the new
// reader refuses as corrupt.
func FuzzSnapEntry(f *testing.F) {
	for _, rec := range snapRecords(f, snapRecEntry) {
		f.Add(rec[1:])
	}
	huge := wire.NewEncoder(0, 0)
	huge.Str("a")
	huge.Byte(entryKindProgram)
	huge.Uvarint(1)
	huge.Uvarint(1 << 63)
	f.Add(huge.Payload()[1:])
	f.Add([]byte{1, 'a', 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parseSnapEntry(append([]byte{snapRecEntry}, data...))
		want, wantErr := refParseSnapEntry(data)
		if wantErr == nil && want.sourceBytes < 0 {
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("%x: source size %d accepted: %v", data, want.sourceBytes, err)
			}
			return
		}
		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wire.ErrCorrupt)) {
			t.Fatalf("%x: parseSnapEntry says %v, reference says %v", data, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%x: parseSnapEntry yields %+v, reference %+v", data, got, want)
		}
	})
}
