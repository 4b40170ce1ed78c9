package parser

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Error goldens, recorded from the parser before its terms became flat
// chains: the message and line:col of every error site must not move. An
// empty want means the source is accepted; "PE " marks a *ParseError.

var programErrorGoldens = []struct{ src, want string }{
	{"P(a) - Q(b).", "1:6: unexpected '-'"},
	{"P(a) < Q(b).", "1:6: unexpected '<'"},
	{"P(a) ? Q(b).", "1:6: unexpected '?'"},
	{"P(99999999999).", "1:3: number too large"},
	{"P(a) & Q(b).", "1:6: unexpected character '&'"},
	{"P(\x01).", "1:3: unexpected character '\\x01'"},
	{"P(a)", "1:5: expected '->', '<-' or '.', found end of input"},
	{"P(a", "1:4: expected ')', found end of input"},
	{"P(a,", "1:5: expected a term, found end of input"},
	{"P(,a).", "1:3: expected a term, found ','"},
	{"P(a) -> .", "1:9: expected identifier, found '.'"},
	{"P(a) -> Q(b)", "1:13: expected '.', found end of input"},
	{"P(a), Q(b).", "1: a fact must be a single atom"},
	{"P(a), Q(b) <- R(c).", "1: a '<-' rule must have exactly one head atom"},
	{"P(a) <- .", "1:9: expected identifier, found '.'"},
	{"P(a) Q(b).", "1:6: expected '->', '<-' or '.', found identifier"},
	{"@foo P/1.", "1:2: unknown directive @foo (want @functional or @data)"},
	{"@functional P/0.", "line 1: @functional P/0: a functional predicate needs at least one argument"},
	{"@functional P.", "1:14: expected '/', found '.'"},
	{"@functional P/x.", "1:15: expected number, found identifier"},
	{"@functional /1.", "1:13: expected identifier, found '/'"},
	{"@data Even/1. Even(T) -> Even(T+1).", "1:26: predicate Even/1 is used both with and without a functional argument"},
	{"@functional P/1. @data P/1.", "line 1: predicate P/1 is used both with and without a functional argument"},
	{"P(X).", "line 1: fact P(X) is not ground"},
	{"Even(0). Even(T) -> Even(T+1). Even(bob).", "1:37: constant bob cannot appear in a functional position"},
	{"P(bob). P(X) -> Q(X). Q(T) -> Q(T+1).", "1:3: constant bob cannot appear in a functional position"},
	{"P(a). P(X+1) -> Q(X).", "1:3: constant a cannot appear in a functional position"},
	{"P(a, f(b)).", "1:6: function application f(...) is only allowed in functional positions"},
	{"P(a, X+1) -> Q(X).", "1:6: '+' is only allowed in functional positions"},
	{"P(a, f(b)+1).", "1:6: '+' is only allowed in functional positions"},
	{"P(f(bob)).", "1:5: constant bob cannot appear in a functional position"},
	{"P(f(g(bob), c)).", "1:7: constant bob cannot appear in a functional position"},
	{"P(f(0, g(c))).", "1:8: function application g(...) is only allowed in functional positions"},
	{"P(f(0, c+1)).", "1:8: '+' is only allowed in functional positions"},
	{"P(f(g(0, h(c)), d+1)).", "1:10: function application h(...) is only allowed in functional positions"},
	{"P(T) -> Q(T+1). Q(T), R(T, T) -> S(T).", "1:23: variable T is used both functionally and non-functionally"},
	{"P(f(T)), R(a, T) -> P(T).", "1:10: variable T is used both functionally and non-functionally"},
	{"P(T+1), Q(T) -> Q(T+1). R(X) -> Q(X), .", "1:37: expected '.', found ','"},
	{"P(0+a).", "1:5: expected number, found identifier"},
	{"P(0+).", "1:5: expected number, found ')'"},
	{"P(a)\nQ(b).", "2:1: expected '->', '<-' or '.', found identifier"},
	{"\n\n  P(a,\n b", "4:3: expected ')', found end of input"},
	{"P(f(0)+1+2, c).", ""},
	{"P(f()).", "1:5: expected a term, found ')'"},
	{"P().", "1:3: expected a term, found ')'"},
	{"P(f(0,)).", "1:7: expected a term, found ')'"},
	{"?- P(X)", "1:8: expected '.', found end of input"},
	{"?- .", "1:4: expected identifier, found '.'"},
	{"?-", "1:3: expected identifier, found end of input"},
	{"P(T+1) -> Q(T). Q(a).", "1:19: constant a cannot appear in a functional position"},
	{"P(S) -> P(f(S, X)).", ""},
	{"P(f(S)), Q(S, S) -> P(S).", "1:10: variable S is used both functionally and non-functionally"},
	{"P(X, Y) -> Q(f(X), Y). Q(a, b).", "1:26: constant a cannot appear in a functional position"},
	{"P(1+1). P(1, 2).", ""},
	{"P(f(X+1, a)).", "line 1: fact P(f(succ(X), a)) is not ground"},
	{"P(0, f(X)+1) -> Q(X).", "1:6: '+' is only allowed in functional positions"},
}

var queryErrorGoldens = []struct{ src, want string }{
	{"?- Even(", "PE 1:9: expected a term, found end of input"},
	{"?- Even(4)", "PE 1:11: expected '.', found end of input"},
	{"Even(4).", "expected exactly one query"},
	{"?- Even(4). ?- Even(5).", "expected exactly one query"},
	{"?- ,", "PE 1:4: expected identifier, found ','"},
	{"", "expected exactly one query"},
	{"?- Even(bob).", "1:9: constant bob cannot appear in a functional position"},
	{"?- Even(a+1).", "1:9: constant a cannot appear in a functional position"},
	{"?- P(T+1).", "1:4: predicate P/1 is used both with and without a functional argument"},
	{"?- P(f(0)).", "1:4: predicate P/1 is used both with and without a functional argument"},
	{"?- Age(a, f(0)).", "1:11: function application f(...) is only allowed in functional positions"},
	{"?- Age(a, X+1).", "1:11: '+' is only allowed in functional positions"},
	{"?- Member(ext(0, f(0)), a).", "1:18: function application f(...) is only allowed in functional positions"},
	{"?- Member(ext(bob, a), a).", "1:15: constant bob cannot appear in a functional position"},
	{"?- Member(ext(0, a)+1, X+1).", "1:24: '+' is only allowed in functional positions"},
	{"?- Even(T), P(T).", "1:13: variable T conflicts with predicate P/1 on functionality"},
	{"?- P(X), Even(X).", "1:10: variable X conflicts with predicate Even/1 on functionality"},
	{"?- Even(f(T)), P(T).", "1:16: variable T conflicts with predicate P/1 on functionality"},
	{"?- Member(ext(S, X), S).", "1:4: variable S is used both functionally and non-functionally"},
	{"?- New(f(T), T).", "1:4: variable T is used both functionally and non-functionally"},
	{"?- Even(99999999999).", "PE 1:9: number too large"},
	{"?- Even(4) extra.", "PE 1:12: expected '.', found identifier"},
	{"@data P/1.", "expected exactly one query"},
	{"?- Even(T), Member(T, T).", "1:4: variable T conflicts with predicate Even/1 on functionality"},
	{"?- At(move(0, a), a), At(move(0, a, a, a), a).", ""},
	{"?- Even(4)\n  , P(\n", "PE 3:1: expected a term, found end of input"},
	{"?- P(0).", ""},
	{"?- P(3).", ""},
	{"?- Even(a).", "1:9: constant a cannot appear in a functional position"},
	{"?- Even(X, Y).", ""},
}

const goldenBase = "Even(0). Even(T) -> Even(T+2). P(a). Member(ext(0, a), a). At(move(0, a, a), a). Age(a, 1)."

func errString(err error) string {
	var pe *ParseError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &pe):
		return "PE " + err.Error()
	}
	return err.Error()
}

func TestErrorGoldens(t *testing.T) {
	for _, g := range programErrorGoldens {
		_, err := Parse(g.src)
		if got := strings.TrimPrefix(errString(err), "PE "); got != g.want {
			t.Errorf("Parse(%q)\n got %q\nwant %q", g.src, got, g.want)
		}
	}
	res := MustParse(goldenBase)
	for _, g := range queryErrorGoldens {
		_, err := ParseQuery(res.Program, g.src)
		if got := errString(err); got != g.want {
			t.Errorf("ParseQuery(%q)\n got %q\nwant %q", g.src, got, g.want)
		}
	}
}

// nested returns f(f(…f(base)…)) with n applications.
func nested(n int, base string) string {
	return strings.Repeat("f(", n) + base + strings.Repeat(")", n)
}

// TestTermDepthCap: nesting, numeric literal and +n sugar count against one
// cap, in programs and queries alike; passing it is a positioned ParseError,
// reached without copying in proportion to the depth. The bound is on the
// bytes a parse allocates — the parser pools nothing, so they repeat — not
// on its time: at most 16 per byte of source (the raw tree's slabs are
// sized from the source once) and 64 per application of a term at the cap,
// where a term built by copying its chain per layer allocates
// quadratically in the depth.
func TestTermDepthCap(t *testing.T) {
	const max = MaxTermDepth
	const base = "@functional Q/1. Q(0). Q(S) -> Q(f(S)). Even(0). Even(T) -> Even(T+2). Age(a, 1). "
	res := MustParse(base)
	cases := []struct {
		name, atom string
		wantPos    string // of the error in "?- atom."; "" = accepted
	}{
		{"nesting at the cap", "Q(" + nested(max, "0") + ")", ""},
		{"nesting past the cap", "Q(" + nested(max+1, "0") + ")", fmt.Sprintf("1:%d", 6+2*max)},
		{"1.39M levels (2.8 MB)", "Q(" + nested(1_390_000, "0") + ")", fmt.Sprintf("1:%d", 6+2*max)},
		{"unclosed nesting past the cap", "Q(" + strings.Repeat("f(", max+1), fmt.Sprintf("1:%d", 6+2*max)},
		{"literal at the cap", fmt.Sprintf("Even(%d)", max), ""},
		{"literal past the cap", fmt.Sprintf("Even(%d)", max+1), "1:9"},
		{"literal 40000", "Even(40000)", ""},
		{"literal 2^30", "Even(1073741824)", "1:9"},
		{"plus past the cap", fmt.Sprintf("Even(T+%d)", max+1), "1:9"},
		{"many small plus", "Even(T" + strings.Repeat("+1", max+1) + ")", "1:9"},
		{"many huge plus", "Even(T" + strings.Repeat("+1073741824", 3000) + ")", "1:9"},
		{"nesting, literal and plus combined", "Q(" + nested(max-10, "6") + "+5)", "1:6"},
		{"combined at the cap", "Q(" + nested(max-10, "6") + "+4)", ""},
		{"nesting through second arguments", "Q(" + strings.Repeat("g(0, ", max+1) + "a" + strings.Repeat(")", max+1) + ")", fmt.Sprintf("1:%d", 6+5*max)},
		{"a data literal is not a depth", "Age(a, 1000000)", ""},
	}
	for _, tc := range cases {
		for _, asProgram := range []bool{false, true} {
			var src string
			switch {
			case !asProgram:
				src = "?- " + tc.atom + "."
			case strings.Contains(tc.atom, "(T"):
				src = base + tc.atom + " -> Even(T)."
			default:
				src = base + tc.atom + "."
			}
			var err error
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if asProgram {
				_, err = Parse(src)
			} else {
				_, err = ParseQuery(res.Program, src)
			}
			runtime.ReadMemStats(&m1)
			if b := m1.TotalAlloc - m0.TotalAlloc; b > 16*uint64(len(src))+64*max {
				t.Errorf("%s (program=%v): %d bytes allocated for %d bytes of source", tc.name, asProgram, b, len(src))
			}
			var pe *ParseError
			switch {
			case tc.wantPos == "":
				if errors.As(err, &pe) {
					t.Errorf("%s (program=%v): rejected: %v", tc.name, asProgram, err)
				}
			case !errors.As(err, &pe) || !strings.Contains(pe.Msg, "deeper than"):
				t.Errorf("%s (program=%v): error %v, want a depth ParseError", tc.name, asProgram, err)
			case !asProgram && fmt.Sprintf("%d:%d", pe.Line, pe.Col) != tc.wantPos:
				t.Errorf("%s: depth error at %d:%d, want %s", tc.name, pe.Line, pe.Col, tc.wantPos)
			}
		}
	}
}
