package parser_test

import (
	"strings"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/parser"
)

// FuzzParseQuery checks that parsing a query against a program's table
// never panics, and that an accepted query survives print/reparse with its
// canonical shape (what plan and answer caches key on) unchanged. It is an
// external test: the shape is core's, and the parser reaches no shape
// writer.
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
	for _, s := range append(seeds, parser.DeepSeeds...) {
		f.Add(s)
		f.Add("?- " + strings.TrimSuffix(s, "."))
	}
	prog := parser.MustParse(parser.MeetingsSrc + parser.ListsSrc + "Even(0). Even(T) -> Even(T+2). At(0, p0). At(S, P) -> At(move(S, P, P), P).").Program
	f.Fuzz(func(t *testing.T, src string) {
		tab := prog.Tab.Clone()
		q, err := parser.ParseQueryTab(tab, src)
		if err != nil {
			return
		}
		printed := q.Format(tab)
		q2, err := parser.ParseQueryTab(tab, printed)
		if err != nil {
			t.Fatalf("reparse of accepted query failed: %v\noriginal: %q\nprinted: %.200s", err, src, printed)
		}
		if s1, s2 := core.QueryShape(q, tab), core.QueryShape(q2, tab); s1 != s2 {
			t.Fatalf("shape not stable under reprint:\nfirst:  %.200s\nsecond: %.200s\nprinted: %.200s", s1, s2, printed)
		}
	})
}
