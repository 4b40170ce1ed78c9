package core

import (
	"bytes"
	"context"
	"testing"

	"funcdb/internal/datagen"
	"funcdb/internal/specio"
)

// FuzzLoadSpec: a document specio.Read accepts always loads. Arbitrary bytes
// go through Read, and whatever it accepts must become a snapshot with the
// document's representatives, which answers a ground and an open query
// without a panic. Seeds are exported documents and near-valid JSON.
func FuzzLoadSpec(f *testing.F) {
	for _, src := range []string{"Even(0). Even(T) -> Even(T+2).", datagen.SubsetsSrc(2), datagen.RobotSrc(2)} {
		db, err := Open(src, Options{})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := db.Export(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"format":"funcdb/spec/v1"}`))
	f.Add([]byte(`{"format":"funcdb/spec/v1","alphabet":["f"],"representatives":[[]],"edges":[{"from":0,"fn":"f","to":0}],` +
		`"slices":[{"rep":0,"facts":[{"pred":"P"}]}],"globals":[{"pred":"Q","args":["a"]}],"equations":[{"left":[],"right":["f"]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := specio.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		snap, err := LoadSpec(doc)
		if err != nil {
			t.Fatalf("a document Read accepts does not load: %v", err)
		}
		if got := snap.Stats().Reps; got != len(doc.Reps) {
			t.Fatalf("%d representatives loaded, the document has %d", got, len(doc.Reps))
		}
		ctx := context.Background()
		for _, q := range []string{"?- P(f(0)).", "?- Q(a).", "?- P(S)."} {
			for _, m := range []Method{MethodGraph, MethodEquational} {
				snap.Ask(ctx, q, WithMethod(m))
			}
		}
	})
}
