package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"funcdb/internal/parser"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/temporal"
)

// TestRunCountBoundsAgree: the reader's count bound is the run string's.
func TestRunCountBoundsAgree(t *testing.T) {
	if parser.MaxTermCount != specgraph.MaxRunCount {
		t.Fatalf("parser.MaxTermCount %d, specgraph.MaxRunCount %d", int64(parser.MaxTermCount), int64(specgraph.MaxRunCount))
	}
}

// TestTemporalAskAtAnyTime: on every oracle program whose specification is
// Theorem 4.3's lasso, a ground ask of any time up to parser.MaxTermCount —
// a numeral, +n sugar, succ written out around either — answers as
// temporal.Spec.Has's arithmetic does, for every functional predicate and
// constant tuple drawn.
func TestTemporalAskAtAnyTime(t *testing.T) {
	ctx := context.Background()
	programs := 0
	for pi, op := range oraclePrograms(t) {
		if !op.sp.Temporal || len(op.sp.Alphabet) != 1 {
			continue
		}
		ts, err := temporal.Build(op.sp)
		if err != nil {
			continue // a one-symbol program that is not a lasso of one merge
		}
		programs++
		r := rand.New(rand.NewSource(int64(4800 + pi)))
		for i := 0; i < 200; i++ {
			p := op.preds[r.Intn(len(op.preds))]
			if !p.fn {
				continue
			}
			var n int64
			switch i % 4 {
			case 0:
				n = parser.MaxTermCount - r.Int63n(1000)
			case 1:
				n = int64(parser.MaxTermDepth) + r.Int63n(1000)
			default:
				n = r.Int63n(parser.MaxTermCount)
			}
			names := make([]string, p.arity)
			args := make([]symbols.ConstID, p.arity)
			for j := range names {
				names[j] = op.consts[r.Intn(len(op.consts))]
				args[j], _ = op.sp.Tab.LookupConst(names[j])
			}
			rest := strings.Join(append([]string{""}, names...), ", ")
			want := ts.Has(p.id, int(n), args)
			for _, term := range []string{
				fmt.Sprint(n),
				fmt.Sprintf("%d+%d", n/2, n-n/2),
				fmt.Sprintf("succ(succ(%d))+%d", n/3, n-n/3-2),
			} {
				text := fmt.Sprintf("?- %s(%s%s).", p.name, term, rest)
				got, err := op.snap.Ask(ctx, text)
				if err != nil || got != want {
					t.Fatalf("%s: %q = %v, %v; the lasso (%d, %d) says %v", op.name, text, got, err, ts.Prefix, ts.Period, want)
				}
			}
		}
	}
	if programs == 0 {
		t.Fatal("no oracle program is temporal")
	}
}

// TestRunWalkOnOraclePrograms: over every oracle program's table, a run
// string of several symbols with counts up to 2^20 walks to the state the
// string written out walks to.
func TestRunWalkOnOraclePrograms(t *testing.T) {
	for pi, op := range oraclePrograms(t) {
		k := len(op.sp.Alphabet)
		if k == 0 {
			continue
		}
		r := rand.New(rand.NewSource(int64(4810 + pi)))
		for i := 0; i < 8; i++ {
			var runs []int32
			var fns []symbols.FuncID
			for j := r.Intn(5); j >= 0; j-- {
				s, n := int32(r.Intn(k)), r.Int63n(1<<20)
				if r.Intn(2) == 0 {
					n = r.Int63n(5)
				}
				runs = specgraph.AppendRun(runs, s, n)
				for ; n > 0; n-- {
					fns = append(fns, op.sp.Alphabet[s])
				}
			}
			want, _, _ := op.sp.Walk(fns)
			if got := op.snap.spec.WalkRuns(runs); got != want {
				t.Fatalf("%s: runs %v walk to %d, the %d symbols written out to %d", op.name, runs, got, len(fns), want)
			}
		}
	}
}

// TestAskPastTheTreeCap: a ground ask past parser.MaxTermDepth is answered,
// as the lasso of examples/programs/meetings.fdb says, while the
// equational method, which applies the term, answers the tree parser's
// error for the text, as Explain does.
func TestAskPastTheTreeCap(t *testing.T) {
	src, err := os.ReadFile("../../examples/programs/meetings.fdb")
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(string(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		text string
		want bool
	}{
		{"?- Meets(65537, jan).", true},
		{"?- Meets(65537, tony).", false},
		{"?- Meets(4611686018427387904, tony).", true},
		{"?- Meets(4611686018427387903+1, jan).", false},
	} {
		got, err := db.Ask(ctx, c.text)
		if err != nil || got != c.want {
			t.Errorf("%q = %v, %v; want %v", c.text, got, err, c.want)
		}
		_, treeErr := parser.ParseQuery(db.Source, c.text)
		if _, err := db.Ask(ctx, c.text, WithMethod(MethodEquational)); err == nil || treeErr == nil || err.Error() != treeErr.Error() {
			t.Errorf("%q by congruence closure: %v; the tree parser: %v", c.text, err, treeErr)
		}
		if _, err := db.Explain(c.text); err == nil || err.Error() != treeErr.Error() {
			t.Errorf("%q explained: %v; the tree parser: %v", c.text, err, treeErr)
		}
	}
}
