package specio

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/term"
)

func buildSpec(t testing.TB, src string) *specgraph.Spec {
	t.Helper()
	prog := parser.MustParse(src).Program
	prep, err := rewrite.Prepare(prog)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	eng, err := engine.New(prep, term.NewUniverse(), facts.NewWorld(), engine.Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	sp, err := specgraph.Build(eng, specgraph.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sp
}

const meetingsSrc = `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`

const listsSrc = `
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`

func TestReadRejectsBadFormat(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"format":"other/v9"}`)); err == nil {
		t.Fatalf("unknown format accepted")
	}
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Fatalf("non-JSON accepted")
	}
}

// TestLoadRejectsCorruptDocuments: a hand-built document that never went
// through Read gets the same scrutiny, from Validate, which the loader
// (core.LoadSpec) runs first.
func TestLoadRejectsCorruptDocuments(t *testing.T) {
	sp := buildSpec(t, meetingsSrc)
	base := FromSpec(sp)

	bad1 := *base
	bad1.Edges = append([]EdgeDoc(nil), base.Edges...)
	bad1.Edges[0].To = 99
	if err := bad1.Validate(); err == nil {
		t.Errorf("out-of-range edge accepted")
	}

	bad2 := *base
	bad2.Edges = append([]EdgeDoc(nil), base.Edges...)
	bad2.Edges[0].Fn = "nosuch"
	if err := bad2.Validate(); err == nil {
		t.Errorf("edge over unknown symbol accepted")
	}

	bad3 := *base
	bad3.Slices = append([]SliceDoc(nil), base.Slices...)
	bad3.Slices[0].Rep = -1
	if err := bad3.Validate(); err == nil {
		t.Errorf("out-of-range slice accepted")
	}
}

func TestDOT(t *testing.T) {
	sp := buildSpec(t, meetingsSrc)
	doc := FromSpec(sp)
	dot := doc.DOT()
	for _, want := range []string{"digraph spec", "n0 -> n1", "n1 -> n0", `label="succ"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestDocumentCarriesEquations(t *testing.T) {
	sp := buildSpec(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	doc := FromSpec(sp)
	if len(doc.Equations) != 1 {
		t.Fatalf("equations = %d, want 1", len(doc.Equations))
	}
	eq := doc.Equations[0]
	if len(eq.Left) != 0 || len(eq.Right) != 2 {
		t.Errorf("equation = %v ~ %v, want 0 ~ succ.succ", eq.Left, eq.Right)
	}
	if !doc.Temporal {
		t.Errorf("temporal flag lost")
	}
}

// TestReadRejectsMalformed feeds Read hostile or corrupted documents and
// checks each is rejected with an explicit error, never a panic.
func TestReadRejectsMalformed(t *testing.T) {
	// A minimal valid document to mutate: one alphabet symbol, two reps
	// (0 and f), one edge, one slice.
	valid := func() *Document {
		return &Document{
			Format:   "funcdb/spec/v1",
			Alphabet: []string{"f"},
			Reps:     []TermDoc{{}, {"f"}},
			Edges:    []EdgeDoc{{From: 0, Fn: "f", To: 1}, {From: 1, Fn: "f", To: 1}},
			Slices:   []SliceDoc{{Rep: 0, Facts: []FactDoc{{Pred: "P"}}}},
			Predicates: []PredicateDoc{
				{Name: "P", Arity: 0, Functional: true},
			},
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Document)
		wantErr string
	}{
		{"bad format", func(d *Document) { d.Format = "funcdb/spec/v9" }, "unsupported format"},
		{"negative seed depth", func(d *Document) { d.SeedDepth = -1 }, "negative seed depth"},
		{"duplicate alphabet symbol", func(d *Document) { d.Alphabet = []string{"f", "f"} }, "duplicate function symbol"},
		{"empty alphabet symbol", func(d *Document) { d.Alphabet = []string{""} }, "empty function symbol"},
		{"duplicate representative", func(d *Document) { d.Reps = append(d.Reps, TermDoc{"f"}) }, "duplicate representative"},
		{"rep outside alphabet", func(d *Document) { d.Reps[1] = TermDoc{"g"} }, "outside the alphabet"},
		{"no root representative", func(d *Document) { d.Reps = []TermDoc{{"f"}} }, "no root representative"},
		{"edge from out of range", func(d *Document) { d.Edges[0].From = 7 }, "out of range"},
		{"edge to out of range", func(d *Document) { d.Edges[0].To = -2 }, "out of range"},
		{"edge outside alphabet", func(d *Document) { d.Edges[0].Fn = "g" }, "outside the alphabet"},
		{"duplicate edge", func(d *Document) { d.Edges = append(d.Edges, EdgeDoc{From: 0, Fn: "f", To: 0}) }, "duplicate edge"},
		{"slice out of range", func(d *Document) { d.Slices[0].Rep = 2 }, "out of range"},
		{"duplicate slice", func(d *Document) { d.Slices = append(d.Slices, SliceDoc{Rep: 0}) }, "duplicate slice"},
		{"empty slice predicate", func(d *Document) { d.Slices[0].Facts[0].Pred = "" }, "empty predicate"},
		{"empty global predicate", func(d *Document) { d.Globals = []FactDoc{{Pred: ""}} }, "empty predicate"},
		{"equation outside alphabet", func(d *Document) {
			d.Equations = []EquationDoc{{Left: TermDoc{"g"}, Right: TermDoc{}}}
		}, "outside the alphabet"},
		{"invalid predicate decl", func(d *Document) { d.Predicates[0].Arity = -1 }, "invalid predicate"},
		// What a successor table cannot hold: a hole, no root, a
		// representative that does not hang from an earlier one by its edge.
		{"missing edge", func(d *Document) { d.Edges = d.Edges[:1] }, "missing edge"},
		{"no representatives", func(d *Document) { d.Reps, d.Edges, d.Slices = nil, nil, nil }, "no root representative"},
		{"root not first", func(d *Document) { d.Reps = []TermDoc{{"f"}, {}} }, "no root representative"},
		{"prefix not a representative", func(d *Document) { d.Reps[1] = TermDoc{"f", "f"} }, "not one symbol past an earlier representative"},
		{"prefix after its extension", func(d *Document) {
			d.Reps = []TermDoc{{}, {"f", "f"}, {"f"}}
			d.Edges = []EdgeDoc{{From: 0, Fn: "f", To: 2}, {From: 1, Fn: "f", To: 1}, {From: 2, Fn: "f", To: 1}}
		}, "not one symbol past an earlier representative"},
		{"tree edge elsewhere", func(d *Document) { d.Edges[0].To = 0 }, "does not lead to representative 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := valid()
			tc.mutate(d)
			var buf bytes.Buffer
			if err := d.Write(&buf); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Read error = %v, want substring %q", err, tc.wantErr)
			}
			// Validate, which the loader runs, rejects the same document.
			if err := d.Validate(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}

	t.Run("valid document survives", func(t *testing.T) {
		d := valid()
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		parent, via, err := got.Tree()
		if err != nil || !slices.Equal(parent, []int32{-1, 0}) || !slices.Equal(via, []int32{-1, 0}) {
			t.Fatalf("Tree = %v, %v, %v; want the root and f under it", parent, via, err)
		}
	})

	t.Run("not json", func(t *testing.T) {
		if _, err := Read(strings.NewReader("Meets(0, tony).")); err == nil {
			t.Fatal("Read accepted non-JSON input")
		}
	})

	t.Run("oversized input", func(t *testing.T) {
		old := MaxDocumentBytes
		MaxDocumentBytes = 128
		defer func() { MaxDocumentBytes = old }()
		big := `{"format":"funcdb/spec/v1","alphabet":["` + strings.Repeat("x", 200) + `"]}`
		if _, err := Read(strings.NewReader(big)); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("Read error = %v, want size rejection", err)
		}
	})
}
