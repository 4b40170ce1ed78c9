package core

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// Error-path coverage for the public façade.

func TestAskErrors(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, q := range []string{
		`Meets(0, tony).`, // not a query
		`?- Meets(`,       // syntax error
	} {
		if _, err := db.Ask(context.Background(), q); err == nil {
			t.Errorf("Ask(%q): expected error", q)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := db.Explain(`?- Meets(T, tony).`); err == nil {
		t.Errorf("non-ground explain accepted")
	}
	if _, err := db.Explain(`?- Next(tony, jan).`); err == nil {
		t.Errorf("non-functional explain accepted")
	}
	exs, err := db.Explain(`?- Meets(3, jan), Meets(2, tony).`)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if len(exs) != 2 || !exs[0].Holds || !exs[1].Holds {
		t.Errorf("conjunctive explain wrong: %v", exs)
	}
}

func TestAnswersParseError(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := db.Answers(context.Background(), `?- ,`); err == nil {
		t.Errorf("bad query accepted")
	}
}

func TestRecomputeRejectsUnboundFreeVariable(t *testing.T) {
	db, err := Open(`
P(a).
P(X) -> Member(ext(0, X), X).
`, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Parsed queries always draw free variables from their atoms, so an
	// unbound one must be injected by hand.
	q, err := db.ParseQuery(`?- Member(ext(S, a), X).`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	q.Free = append(q.Free, db.Tab().Var("Phantom"))
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	p := &Plan{snap: snap, q: q, tab: snap.tab}
	if _, err := p.buildSpec(context.Background()); !errors.Is(err, ErrUnsafeQuery) {
		t.Errorf("query with unbound free variable: %v, want ErrUnsafeQuery", err)
	}
}

func TestStatsParams(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := db.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Params.S != 2 || st.Params.M != 1 {
		t.Errorf("Params = %+v", st.Params)
	}
	if !strings.Contains(st.Params.String(), "gsize") {
		t.Errorf("Params.String = %q", st.Params.String())
	}
}

func TestDocumentAccessor(t *testing.T) {
	db, err := Open(meetingsSrc, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	doc, err := db.Document()
	if err != nil {
		t.Fatalf("Document: %v", err)
	}
	if !doc.Temporal || len(doc.Reps) != 2 {
		t.Errorf("document shape: temporal=%v reps=%d", doc.Temporal, len(doc.Reps))
	}
}
