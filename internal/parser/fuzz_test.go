package parser

import (
	"strings"
	"testing"
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
