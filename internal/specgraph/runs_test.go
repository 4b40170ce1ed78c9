package specgraph

import (
	"math/rand"
	"slices"
	"testing"

	"funcdb/internal/symbols"
)

// randomTable returns a table of n states over k symbols whose successors
// are drawn at random: only the walks read it.
func randomTable(r *rand.Rand, n, k int) *Table {
	alphabet := make([]symbols.FuncID, k)
	for i := range alphabet {
		alphabet[i] = symbols.FuncID(i)
	}
	t := newTable(alphabet)
	t.trans = make([]int32, n*k)
	for i := range t.trans {
		t.trans[i] = int32(r.Intn(n))
	}
	return t
}

// TestRunWalkMatchesExpanded: over random tables and random run strings of
// several symbols, with counts up to 2^20, WalkRuns reaches the state
// Table.Walk reaches over the string written out, and a run string spells as
// many applications as that string has.
func TestRunWalkMatchesExpanded(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for trial := 0; trial < 300; trial++ {
		tab := randomTable(r, 1+r.Intn(40), 1+r.Intn(4))
		var runs []int32
		var fns []symbols.FuncID
		for j := r.Intn(6); j >= 0; j-- {
			s := int32(r.Intn(len(tab.Alphabet)))
			n := int64(r.Intn(5))
			switch r.Intn(3) {
			case 0:
				n = r.Int63n(1 << 20)
			case 1:
				n = r.Int63n(200)
			}
			runs = AppendRun(runs, s, n)
			for ; n > 0; n-- {
				fns = append(fns, tab.Alphabet[s])
			}
		}
		want, _, ok := tab.Walk(fns)
		if !ok {
			t.Fatal("the expanded walk left the alphabet")
		}
		if got := tab.WalkRuns(runs); got != want {
			t.Fatalf("trial %d: WalkRuns(%v) = %d, the expanded walk of %d symbols %d", trial, runs, got, len(fns), want)
		}
		var total int64
		EachRun(runs, func(_ int32, n int64) { total += n })
		if total != int64(len(fns)) {
			t.Fatalf("trial %d: the runs spell %d applications, want %d", trial, total, len(fns))
		}
	}
}

// TestRunWalkPastTheTail: a run whose count, reduced modulo the period
// alone, would land in the tail. The orbit 0 → 1 → 2 → 3 → 4 → 2 has tail 2
// and period 3: 3^k·p applications of the symbol stay on the cycle, though k·p
// mod 3 is 0 and state 0 is the tail's.
func TestRunWalkPastTheTail(t *testing.T) {
	tab := newTable([]symbols.FuncID{0})
	tab.trans = []int32{1, 2, 3, 4, 2}
	orbit := func(n int64) int32 {
		if n < 2 {
			return int32(n)
		}
		return int32(2 + (n-2)%3)
	}
	for _, n := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 9, 30, 1 << 20, 3 << 40, MaxRunCount} {
		if got, want := tab.WalkRuns(AppendRun(nil, 0, n)), orbit(n); got != want {
			t.Errorf("a run of %d: state %d, want %d", n, got, want)
		}
	}
	if l := tab.Lasso(); l == nil || l.Tail != 2 || l.Period != 3 {
		t.Errorf("Lasso() = %+v, want tail 2 and period 3", l)
	}
}

// TestRunStringCostsNoMoreThanPlain: a run of one or two applications is
// written as plain indices, and a longer one in three words.
func TestRunStringCostsNoMoreThanPlain(t *testing.T) {
	for n := int64(0); n < 10; n++ {
		if got := len(AppendRun(nil, 5, n)); got > int(n) && got != 3 {
			t.Errorf("a run of %d takes %d words", n, got)
		}
	}
	type run struct {
		s int32
		n int64
	}
	var got []run
	EachRun(AppendRun(AppendRun(nil, 1, 2), 0, MaxRunCount), func(s int32, n int64) { got = append(got, run{s, n}) })
	if want := []run{{1, 1}, {1, 1}, {0, MaxRunCount}}; !slices.Equal(got, want) {
		t.Errorf("EachRun read %v, want %v", got, want)
	}
}

// BenchmarkRunWalk times a walk of one run of 2^40 applications over a
// one-symbol table of 64 states: a few laps of its cycle.
func BenchmarkRunWalk(b *testing.B) {
	tab := newTable([]symbols.FuncID{0})
	tab.trans = make([]int32, 64)
	for i := range tab.trans {
		tab.trans[i] = int32(i + 1)
	}
	tab.trans[63] = 20
	runs := AppendRun(nil, 0, 1<<40)
	for i := 0; i < b.N; i++ {
		tab.WalkRuns(runs)
	}
}
