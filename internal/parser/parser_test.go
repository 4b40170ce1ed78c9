package parser

import (
	"strings"
	"testing"
)

const meetingsSrc = `
% section 1: scheduling meetings with a common advisor
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
?- Meets(T, X).
`

func TestParseMeetings(t *testing.T) {
	res, err := Parse(meetingsSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p := res.Program
	if len(p.Facts) != 3 || len(p.Rules) != 1 {
		t.Fatalf("got %d facts, %d rules", len(p.Facts), len(p.Rules))
	}
	if !p.IsTemporal() {
		t.Fatalf("meetings should be temporal")
	}
	meets, ok := p.Tab.LookupPred("Meets", 1, true)
	if !ok {
		t.Fatalf("Meets/2 not inferred functional")
	}
	if p.Facts[0].Pred != meets || p.Facts[0].FT == nil || p.Facts[0].FT.Depth() != 0 {
		t.Fatalf("Meets(0, tony) parsed wrong: %+v", p.Facts[0])
	}
	if _, ok := p.Tab.LookupPred("Next", 2, false); !ok {
		t.Fatalf("Next/2 not inferred non-functional")
	}
	r := p.Rules[0]
	if r.Head.FT.Depth() != 1 {
		t.Fatalf("head term depth = %d, want 1 (T+1)", r.Head.FT.Depth())
	}
	if len(res.Queries) != 1 || len(res.Queries[0].Free) != 2 {
		t.Fatalf("query parse: %+v", res.Queries)
	}
}

const listsSrc = `
% section 2.1: simple list processing
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`

func TestParseLists(t *testing.T) {
	res, err := Parse(listsSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p := res.Program
	if _, ok := p.Tab.LookupPred("Member", 1, true); !ok {
		t.Fatalf("Member not inferred functional")
	}
	if _, ok := p.Tab.LookupPred("P", 1, false); !ok {
		t.Fatalf("P not inferred data")
	}
	ext, ok := p.Tab.LookupFunc("ext", 1)
	if !ok {
		t.Fatalf("ext/1 (one data argument) not interned")
	}
	if p.Tab.FuncInfo(ext).DataArity != 1 {
		t.Fatalf("ext data arity wrong")
	}
	if !p.HasMixed() {
		t.Fatalf("lists program uses a mixed symbol")
	}
	if c := p.GroundDepth(); c != 0 {
		t.Fatalf("GroundDepth = %d, want 0", c)
	}
}

const plannerSrc = `
% section 1: situation-calculus planning
At(0, p0).
Connected(p0, p1).
Connected(p1, p0).
At(S, P1), Connected(P1, P2) -> At(move(S, P1, P2), P2).
`

func TestParsePlanner(t *testing.T) {
	res, err := Parse(plannerSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	p := res.Program
	move, ok := p.Tab.LookupFunc("move", 2)
	if !ok {
		t.Fatalf("move/2 not interned")
	}
	if p.Tab.FuncInfo(move).DataArity != 2 {
		t.Fatalf("move data arity = %d", p.Tab.FuncInfo(move).DataArity)
	}
	if !p.IsDomainIndependent() {
		t.Fatalf("planner should be domain-independent")
	}
}

func TestFunctionalityPropagation(t *testing.T) {
	// Q's functionality is only discoverable through the shared variable T.
	src := `
Even(0).
Even(T) -> Even(T+2).
Even(T) -> Q(T).
`
	res, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, ok := res.Program.Tab.LookupPred("Q", 0, true); !ok {
		t.Fatalf("Q not inferred functional via shared variable")
	}
}

func TestDirectives(t *testing.T) {
	src := `
@functional Holds/1.
@data Age/2.
Holds(0).
Age(bob, 42).
`
	res, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, ok := res.Program.Tab.LookupPred("Holds", 0, true); !ok {
		t.Fatalf("@functional directive ignored")
	}
	if _, ok := res.Program.Tab.LookupPred("Age", 2, false); !ok {
		t.Fatalf("@data directive ignored")
	}
}

func TestNumbersAsDataWithoutEvidence(t *testing.T) {
	src := `Age(bob, 42). Age(ann, 42).`
	res, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, ok := res.Program.Tab.LookupPred("Age", 2, false); !ok {
		t.Fatalf("Age should default to a data predicate")
	}
	if _, ok := res.Program.Tab.LookupConst("42"); !ok {
		t.Fatalf("42 should be interned as a data constant")
	}
}

func TestHeadFirstRuleSyntax(t *testing.T) {
	src := `
Even(0).
Even(T+2) <- Even(T).
`
	res, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(res.Program.Rules) != 1 {
		t.Fatalf("got %d rules", len(res.Program.Rules))
	}
	r := res.Program.Rules[0]
	if r.Head.FT.Depth() != 1+1 {
		t.Fatalf("head should be T+2 (depth 2 over variable), got depth %d", r.Head.FT.Depth())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unterminated", `P(a)`},
		{"bad token", `P(a) & Q(b).`},
		{"two heads", `P(a), Q(b).`},
		{"non-ground fact", `P(X).`},
		{"const in functional position", `Even(0). Even(T) -> Even(T+1). Even(bob).`},
		{"const forced functional", `P(bob). P(X) -> Q(X). Q(T) -> Q(T+1).`},
		{"plus on data", `P(a). P(X+1) -> Q(X).`},
		{"app in data position", `P(a, f(b)).`},
		{"unknown directive", `@foo P/1.`},
		{"functional zero arity", `@functional P/0.`},
		{"arity mismatch ok but functional conflict", `@data Even/1. Even(T) -> Even(T+1).`},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.src); err == nil {
			t.Errorf("%s: no error for %q", tc.name, tc.src)
		}
	}
}

func TestZeroArityAtom(t *testing.T) {
	src := `
Go.
Go -> Ready.
`
	res, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(res.Program.Facts) != 1 || len(res.Program.Rules) != 1 {
		t.Fatalf("facts=%d rules=%d", len(res.Program.Facts), len(res.Program.Rules))
	}
}

func TestRoundTrip(t *testing.T) {
	for _, src := range []string{meetingsSrc, listsSrc, plannerSrc} {
		res, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		printed := res.Program.Format()
		res2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q: %v", printed, err)
		}
		if res2.Program.Format() != printed {
			t.Errorf("round trip not stable:\nfirst:\n%s\nsecond:\n%s", printed, res2.Program.Format())
		}
	}
}

func TestParseQueryAgainstProgram(t *testing.T) {
	res, err := Parse(listsSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	q, err := ParseQuery(res.Program, `?- Member(S, a).`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if len(q.Atoms) != 1 || q.Atoms[0].FT == nil || !q.Atoms[0].FT.HasVarBase() {
		t.Fatalf("query atom parsed wrong: %+v", q.Atoms[0])
	}
	if len(q.Free) != 1 {
		t.Fatalf("free vars = %d, want 1 (S)", len(q.Free))
	}
	// Underscore variables are existential, not free.
	q2, err := ParseQuery(res.Program, `?- Member(_S, X).`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	if len(q2.Free) != 1 {
		t.Fatalf("free vars = %d, want 1 (X only)", len(q2.Free))
	}
}

// TestParseFactsAgainstProgram: facts parse against a program's table the way
// they would parse appended to its text — a known predicate keeps the
// functionality the program gave it, a new one is inferred from the facts —
// and anything but ground facts is refused, in Parse's words.
func TestParseFactsAgainstProgram(t *testing.T) {
	prog := MustParse(meetingsSrc).Program
	facts, err := ParseFactsTab(prog.Tab, "Meets(0, jan).\nNext(jan, jan). Seen(f(0), tony).\n@functional Late/1.\nLate(0).\nOther(3).")
	if err != nil {
		t.Fatalf("ParseFactsTab: %v", err)
	}
	var got []string
	for i := range facts {
		got = append(got, facts[i].Format(prog.Tab))
	}
	want := []string{"Meets(0, jan)", "Next(jan, jan)", "Seen(f(0), tony)", "Late(0)", "Other(3)"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("facts = %v, want %v", got, want)
	}
	for i, functional := range []bool{true, false, true, true, false} {
		if facts[i].IsFunctional() != functional {
			t.Errorf("%s: functional = %v, want %v", got[i], !functional, functional)
		}
	}
	if meets, _ := prog.Tab.LookupPred("Meets", 1, true); facts[0].Pred != meets {
		t.Errorf("Meets was interned again instead of resolved against the program")
	}
	for _, c := range []struct{ src, want string }{
		{"Meets(T, X), Next(X, Y) -> Meets(T+1, Y).", ErrNotFacts.Error()},
		{"Meets(0, jan). ?- Meets(0, X).", ErrNotFacts.Error()},
		{"Meets(0, jan).\nMeets(T, jan).", "line 2: fact Meets(T, jan) is not ground"},
		{"Meets(tony, jan).", "1:7: constant tony cannot appear in a functional position"},
		{"Next(0+1, jan).", "1:1: predicate Next/2 is used both with and without a functional argument"},
		{"Meets(0, jan", "1:13: expected ')', found end of input"},
	} {
		if _, err := ParseFactsTab(prog.Tab, c.src); err == nil || err.Error() != c.want {
			t.Errorf("ParseFactsTab(%q) = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := "% leading comment\n\n  P(a).  % trailing\n\tP(b).\n"
	res, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(res.Program.Facts) != 2 {
		t.Fatalf("facts = %d, want 2", len(res.Program.Facts))
	}
}

func TestErrorMessagesCarryPosition(t *testing.T) {
	_, err := Parse("P(a)\nQ(b).")
	if err == nil {
		t.Fatalf("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error lacks line info: %v", err)
	}
}
