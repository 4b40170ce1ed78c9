package core

import (
	"fmt"
	"runtime"
	"testing"
)

// republishCost posts the family's facts number 0 to history-1, republishing
// after each, and returns what the republish after one more allocates.
func republishCost(t *testing.T, src string, fact func(int) string, history int) (bytes, allocs uint64) {
	t.Helper()
	db := openPublished(t, src)
	for j := 0; j < history; j++ {
		extendPublish(t, db, fact(j))
	}
	if err := db.Extend(fact(history)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestPublishIndependentOfHistory: a publish freezes the stores by taking
// their lengths, so what it allocates follows the specification it builds,
// not the facts the database has taken. To hold the specification still while
// the stores grow, the history is of facts of a predicate no rule mentions —
// they reach the source program, the symbol table (cal's bring a new constant
// each; sub and rob have mixed symbols, where a new constant would recompile),
// the world's tuples and atoms and the global set, and no state. The same
// republish is measured after 10 such facts and after 250. With a copy of the
// interning maps, the source program and the global set's membership per
// publish, the one after 250 allocated 40 KB and 240 allocations more than the
// one after 10 in every family: 1.76 times cal's bytes, 1.73 times rob's
// allocations.
func TestPublishIndependentOfHistory(t *testing.T) {
	consts := map[string]string{"cal": "s", "sub": "e", "rob": "p"}
	for _, f := range writeFamilies {
		c := consts[f.name]
		src := f.src + f.deep + "\n" + fmt.Sprintf("Tag(%s0, %s0, %s0).\n", c, c, c)
		fact := func(i int) string {
			i++ // Tag(c0, c0, c0) is in the text
			if f.name == "cal" {
				return fmt.Sprintf("Tag(x%d, s%d, s%d).", i, i%7, i%5)
			}
			return fmt.Sprintf("Tag(%s%d, %s%d, %s%d).", c, i%7, c, (i/7)%7, c, (i/49)%7)
		}
		b10, a10 := republishCost(t, src, fact, 10)
		b250, a250 := republishCost(t, src, fact, 250)
		t.Logf("%s: republish after 10 facts %d bytes / %d allocations, after 250 %d / %d", f.name, b10, a10, b250, a250)
		if 4*b250 > 5*b10 || 4*a250 > 5*a10 {
			t.Errorf("%s: republish after 250 facts allocates %d bytes in %d allocations, after 10 %d in %d: more than 1.25 times",
				f.name, b250, a250, b10, a10)
		}
	}
}
