package core

import (
	"context"
	"strings"
	"testing"

	"funcdb/internal/datagen"
)

// TestOutsideAlphabetIsFalse: a ground atom over a symbol the
// specification's alphabet lacks — a mixed application over a constant the
// program never used, a foreign function symbol, a numeral in a program
// without succ — is false under range restriction, for both methods and
// inside a conjunction, as the depth-bounded fixpoint agrees; an open query
// over one has no answer; and Explain names the symbol instead of failing
// with its id.
func TestOutsideAlphabetIsFalse(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, src string
		queries   []string
		symbol    string // what Explain of the first query names
	}{
		{"rob", datagen.RobotSrc(8), []string{
			"?- At(move(0, p0, p9), p9).",
			"?- At(move(move(0, p0, p1), p1, p9), p1).",
		}, "move'p0'p9"},
		{"sub", datagen.SubsetsSrc(6), []string{
			"?- Member(foo(0), e1).",
			"?- Member(3, e1).",
			"?- Member(ext(0, e1), e1), Member(foo(ext(0, e1)), e1).",
		}, "foo"},
	} {
		op := newOracleProgram(t, tc.name, tc.src)
		for _, q := range tc.queries {
			for _, m := range []Method{MethodGraph, MethodEquational} {
				if got, err := op.snap.Ask(ctx, q, WithMethod(m)); err != nil || got {
					t.Errorf("%s: %s (method %d) = %v, %v; want false", tc.name, q, m, got, err)
				}
			}
			if got, err := (fixpointOracle{op}).Ask(q); err != nil || got {
				t.Errorf("%s: %s: fixpoint = %v, %v; want false", tc.name, q, got, err)
			}
		}
		text, err := op.db.ExplainText(tc.queries[0])
		if err != nil || !strings.Contains(text, tc.symbol+" is not in the specification's alphabet") || !strings.Contains(text, "false") {
			t.Errorf("%s: Explain(%s) = %q, %v; want it to name %s", tc.name, tc.queries[0], text, err, tc.symbol)
		}
	}
	op := newOracleProgram(t, "sub", datagen.SubsetsSrc(6))
	ans, err := op.snap.Answers(ctx, "?- Member(foo(0), X).")
	if err != nil || !ans.IsEmpty() {
		t.Errorf("?- Member(foo(0), X). = %v, %v; want no answer", ans, err)
	}
}
