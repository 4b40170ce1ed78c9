package specio_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/specio"
)

// TestRoundTripMeetings: a document written, read back and loaded answers as
// the program did, by either method, with the rules gone — ground functional
// atoms from the slices, data atoms from the globals.
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
