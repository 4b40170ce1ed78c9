package core

import (
	"context"
	"testing"

	"funcdb/internal/symbols"
	"funcdb/internal/term"
	"funcdb/internal/topdown"
)

const meetingsSrc = `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
?- Meets(T, X).
`

func TestOpenAndAsk(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(db.EmbeddedQueries()) != 1 {
		t.Fatalf("embedded queries = %d, want 1", len(db.EmbeddedQueries()))
	}
	cases := []struct {
		q    string
		want bool
	}{
		{`?- Meets(0, tony).`, true},
		{`?- Meets(1, tony).`, false},
		{`?- Meets(8, tony).`, true},
		{`?- Meets(9, jan).`, true},
		{`?- Meets(9, jan), Meets(8, tony).`, true},
		{`?- Meets(9, jan), Meets(9, tony).`, false},
		{`?- Next(tony, jan).`, true},
		{`?- Next(jan, bob).`, false},
		{`?- Meets(T, tony).`, true},
	}
	for _, tc := range cases {
		got, err := db.Ask(context.Background(), tc.q)
		if err != nil {
			t.Fatalf("Ask(%s): %v", tc.q, err)
		}
		if got != tc.want {
			t.Errorf("Ask(%s) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestAnswersRouting(t *testing.T) {
	db, err := Open(`
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Uniform query: incremental path.
	ans, err := db.Answers(context.Background(), `?- Member(S, a).`)
	if err != nil {
		t.Fatalf("Answers: %v", err)
	}
	if ans.IsEmpty() {
		t.Fatalf("answer set should be infinite, not empty")
	}
	// Non-uniform query: recompute path.
	ans2, err := db.Answers(context.Background(), `?- Member(ext(S, a), b).`)
	if err != nil {
		t.Fatalf("Answers (non-uniform): %v", err)
	}
	if ans2.IsEmpty() {
		t.Fatalf("non-uniform answer set should not be empty")
	}
	n := 0
	if err := ans.Enumerate(3, func(ft term.Term, args []symbols.ConstID) bool {
		n++
		return true
	}); err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	// Lists of depth <= 3 containing a: [a]; aa, ab, ba; and the 7 of 8
	// depth-3 lists that are not bbb: 1 + 3 + 7 = 11.
	if n != 11 {
		t.Errorf("answers to depth 3 = %d, want 11", n)
	}
}

func TestStats(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if !st.Temporal || st.Reps != 2 || st.Equations != 1 {
		t.Errorf("Stats = %+v; want temporal, 2 reps, 1 equation", st)
	}
}

func TestTemporalFastPath(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts, err := db.Temporal()
	if err != nil {
		t.Fatalf("Temporal: %v", err)
	}
	if ts.Prefix != 0 || ts.Period != 2 {
		t.Errorf("lasso = (%d, %d)", ts.Prefix, ts.Period)
	}
}

func TestEquational(t *testing.T) {
	db, err := Open(`
Even(0).
Even(T) -> Even(T+2).
`, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	eq, err := db.Equational()
	if err != nil {
		t.Fatalf("Equational: %v", err)
	}
	if eq.Size() != 1 {
		t.Fatalf("|R| = %d, want 1", eq.Size())
	}
	succ, _ := db.Tab().LookupFunc("succ", 0)
	u := db.Universe()
	if !eq.Congruent(u.Number(0, succ), u.Number(4, succ)) {
		t.Errorf("(0,4) should be congruent")
	}
	if eq.Congruent(u.Number(0, succ), u.Number(3, succ)) {
		t.Errorf("(0,3) should not be congruent")
	}
}

func TestCanonicalAccessor(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	form, err := db.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	meets, _ := db.Tab().LookupPred("Meets", 1, true)
	tony, _ := db.Tab().LookupConst("tony")
	succ, _ := db.Tab().LookupFunc("succ", 0)
	if !form.Has(meets, db.Universe().Number(10, succ), []symbols.ConstID{tony}) {
		t.Errorf("canonical form misses Meets(10, tony)")
	}
}

func TestAskMixedGroundQuery(t *testing.T) {
	db, err := Open(`
At(0, p0).
Connected(p0, p1).
Connected(p1, p0).
At(S, P1), Connected(P1, P2) -> At(move(S, P1, P2), P2).
`, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, err := db.Ask(context.Background(), `?- At(move(0, p0, p1), p1).`)
	if err != nil {
		t.Fatalf("Ask: %v", err)
	}
	if !got {
		t.Errorf("one-step plan should reach p1")
	}
	got, err = db.Ask(context.Background(), `?- At(move(0, p1, p0), p0).`)
	if err != nil {
		t.Fatalf("Ask: %v", err)
	}
	if got {
		t.Errorf("moving from p1 at time 0 is impossible")
	}
}

func TestProverAccessor(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ev, err := db.Prover(topdown.Options{})
	if err != nil {
		t.Fatalf("Prover: %v", err)
	}
	meets, _ := db.Tab().LookupPred("Meets", 1, true)
	succ, _ := db.Tab().LookupFunc("succ", 0)
	tony, _ := db.Tab().LookupConst("tony")
	got, err := ev.Prove(meets, db.Universe().Number(6, succ), []symbols.ConstID{tony})
	if err != nil || !got {
		t.Errorf("Prove(Meets(6, tony)) = %v, %v", got, err)
	}
	if !ev.Complete() {
		t.Errorf("meetings proof should be complete")
	}
}

func TestOpenRejectsBadPrograms(t *testing.T) {
	if _, err := Open(`P(X).`, Options{}); err == nil {
		t.Errorf("non-ground fact accepted")
	}
	if _, err := Open(`
@functional P/1.
R(a).
P(S) -> P(g(S, W)).
`, Options{}); err == nil {
		t.Errorf("domain-dependent program accepted")
	}
}
