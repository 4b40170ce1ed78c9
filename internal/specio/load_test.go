package specio_test

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/specio"
)

// TestRoundTripMeetings: a document written, read back and loaded answers as
// the program did, by either method, with the rules gone — ground functional
// atoms from the slices, data atoms from the globals. The Spec specio reads
// it into exports the same document again.
func TestRoundTripMeetings(t *testing.T) {
	doc := document(t, `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`)
	var buf bytes.Buffer
	if err := doc.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := specio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := back.Spec()
	if err != nil {
		t.Fatal(err)
	}
	// A fresh world numbers the atoms in another order, and a slice lists
	// its facts in atom order: compare the slices sorted.
	sorted := func(d *specio.Document) string {
		for _, sl := range d.Slices {
			slices.SortFunc(sl.Facts, func(a, b specio.FactDoc) int {
				return cmp.Or(strings.Compare(a.Pred, b.Pred), slices.Compare(a.Args, b.Args))
			})
		}
		return normalize(d)
	}
	if got, want := sorted(specio.FromSpec(sp)), sorted(doc); got != want {
		t.Errorf("the loaded Spec exports\n%s\nnot the document it was loaded from\n%s", got, want)
	}
	snap, err := core.LoadSpec(back)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Stats().Reps; got != len(doc.Reps) {
		t.Fatalf("reps = %d, want %d", got, len(doc.Reps))
	}
	want := map[string]bool{"?- Next(tony, jan).": true, "?- Next(jan, bob).": false}
	for n := 0; n <= 9; n++ {
		want[fmt.Sprintf("?- Meets(%d, tony).", n)] = n%2 == 0
	}
	for q, w := range want {
		for _, m := range []core.Method{core.MethodGraph, core.MethodEquational} {
			if got, err := snap.Ask(context.Background(), q, core.WithMethod(m)); err != nil || got != w {
				t.Errorf("%s (method %d) = %v, %v; want %v", q, m, got, err, w)
			}
		}
	}
}
