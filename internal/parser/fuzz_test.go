package parser

import (
	"strings"
	"testing"

	"funcdb/internal/canonical"
)

// deepSeeds are the shapes that used to be quadratic or to overflow the
// stack: deep nesting (closed, unclosed, through second arguments), large
// literals on both sides of MaxTermDepth and long +n runs. (Nesting past
// the cap needs a 130 KB seed, which stalls the fuzzer's minimizer; the
// table test TestTermDepthCap covers it.)
var deepSeeds = []string{
	"P(" + strings.Repeat("f(", 300) + "0" + strings.Repeat(")", 300) + ").",
	"P(" + strings.Repeat("f(", 300) + "0",
	"P(" + strings.Repeat("g(0, ", 300) + "a" + strings.Repeat(")", 300) + ").",
	"Even(0). Even(T) -> Even(T+2). Even(40000). Even(65537). Even(1073741824).",
	"Even(T" + strings.Repeat("+1", 400) + ") -> Even(T).",
	"P(f(g(X+1, a, b)+2, c)+3) -> P(X).",
}

// FuzzParse checks that the parser never panics, and that accepted programs
// survive a print/reparse round trip with stable output. Run with
// go test -fuzz=FuzzParse ./internal/parser; the seed corpus also runs as a
// plain test.
func FuzzParse(f *testing.F) {
	seeds := []string{
		meetingsSrc,
		listsSrc,
		plannerSrc,
		"Even(0).\nEven(T) -> Even(T+2).\n",
		"@functional P/1.\nP(0).\nP(f(g(S))) -> P(S).\n",
		"?- Member(S, a).",
		"% just a comment\n",
		"P(a",
		"P(a)->",
		"P(a). -> Q(b).",
		"@data X/0.",
		"P('').",
		"P(_).",
		"A(0+3, x1).",
	}
	for _, s := range append(seeds, deepSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Parse(src)
		if err != nil {
			return
		}
		printed := res.Program.Format()
		res2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of accepted program failed: %v\noriginal: %q\nprinted:\n%s",
				err, src, printed)
		}
		if got := res2.Program.Format(); got != printed {
			t.Fatalf("print/reparse not stable:\nfirst:\n%s\nsecond:\n%s", printed, got)
		}
	})
}

// FuzzParseQuery checks that parsing a query against a program's table
// never panics, and that an accepted query survives print/reparse with its
// canonical shape (what plan and answer caches key on) unchanged.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"?- Even(4).", "?- Even(T), Meets(T, X).", "?- Member(ext(ext(0, a), X), b).",
		"?- At(move(S, p0, P), P), Even(3+1).", "?- Meets(_T, tony)", "?- ,", "", "?- New(f(0), c).",
		"?-   Member( ext(S,_X) , a )  .",
		// Respellings written by the ground-query oracle's generator
		// (internal/core/ground_oracle_test.go): whitespace, newlines and %
		// comments between tokens, numerals as sums, broken queries.
		"  ?- \n  Meets(  3\n,s1 )\t,Next % note\n(%)\n s1\n%\n,\ts1 % note\n)  ,Meets(\n15\n+\n%\n1\r\n+\t1\r\n,  s2\r\n)\r\n,\n%\nNext \n  (%)\n s4 % note\n, % note\ns0\n%\n).",
		"\r\n?-Meets\n(  8\t+\n%\n2\n, % note\ns2 % note\n)  ,  Next(  s3 \n  ,s4  )\t.\n",
		"\r\n?-\tNext(\ns4+3,\ts0)\n%\n.\r\n",
		"?- % note\nAt%)\n (\n%\nmove\n(%)\n move( move\t( \n  0\n,%)\n p3\n, \n  p2\n)\t, \n  p1 \n  ,%)\n p0\n%\n) % note\n,\r\np1, % note\np2), % note\nnobody).  ",
		"?-At \n  (move\r\n(\nmove(%)\n move (  move\t( \n  0,\np0,%)\n p2\r\n)\n%\n,p0 % note\n,\r\np0),\r\np0 ,\r\np1 % note\n)\r\n, \n  p0  , \n  p1 % note\n) , % note\np1).\n",
		"\n?-Member(\r\next(\n%\next\n( ext % note\n( 1, e0 \n  ) \n  ,  e1\t) , % note\ne2), e1\r\n).",
		"\n?-\tMember( % note\next\n%\n(  ext( \n  zork \n  (\n0\r\n)  ,\r\ne2) ,\ne0\n)%)\n ,%)\n e2 % note\n)\t,  Member(  0\n%\n,\te0\t)\n.\n%\n",
		"%)\n ?-\n%\nP  ( \n  e0 % note\n),  P\t(\r\nf  (%)\n 0\n) \n  )\n%\n.",
		"%)\n ?-  Member \n  (\n%\next%)\n (  0  ,\n%\ne1\r\n)\r\n, e1) ,\n%\nP(\t",
	}
	for _, s := range append(seeds, deepSeeds...) {
		f.Add(s)
		f.Add("?- " + strings.TrimSuffix(s, "."))
	}
	prog := MustParse(meetingsSrc + listsSrc + "Even(0). Even(T) -> Even(T+2). At(0, p0). At(S, P) -> At(move(S, P, P), P).").Program
	f.Fuzz(func(t *testing.T, src string) {
		tab := prog.Tab.Clone()
		q, err := ParseQueryTab(tab, src)
		if err != nil {
			return
		}
		printed := q.Format(tab)
		q2, err := ParseQueryTab(tab, printed)
		if err != nil {
			t.Fatalf("reparse of accepted query failed: %v\noriginal: %q\nprinted: %.200s", err, src, printed)
		}
		if s1, s2 := canonical.QueryShape(q, tab), canonical.QueryShape(q2, tab); s1 != s2 {
			t.Fatalf("shape not stable under reprint:\nfirst:  %.200s\nsecond: %.200s\nprinted: %.200s", s1, s2, printed)
		}
	})
}
