package store

import (
	"bytes"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/registry"
	"funcdb/internal/specio"
)

// The three ways fdbd can bring the subsets(6) catalog entry back into
// service, from slowest to fastest: recompile the rule source from
// scratch, re-parse the exported JSON specification, or load the binary
// snapshot the store wrote. The snapshot path is what crash recovery pays.

func benchSpecJSON(b *testing.B) []byte {
	b.Helper()
	db, err := core.Open(datagen.SubsetsSrc(6), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Export(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkRecompileFromSource(b *testing.B) {
	src := datagen.SubsetsSrc(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Open(src, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpecioJSONLoad(b *testing.B) {
	raw := benchSpecJSON(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := specio.Read(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.LoadSpec(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	dir := b.TempDir()
	raw := benchSpecJSON(b)
	s, err := Open(Options{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.New(core.Options{})
	if _, err := s.Recover(reg); err != nil {
		b.Fatal(err)
	}
	if _, err := reg.PutSpec("subsets6", raw); err != nil {
		b.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		reg2 := registry.New(core.Options{})
		st, err := s2.Recover(reg2)
		if err != nil {
			b.Fatal(err)
		}
		if st.Entries != 1 {
			b.Fatalf("recovered %d entries, want 1", st.Entries)
		}
		if err := s2.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
