package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"funcdb/internal/datagen"
	"funcdb/internal/symbols"
)

// answersCases are the hit path of the benchmark's answers workload, one
// query per family and class at a depth from the workload's range
// (bench/gen.go: cal 1–64, sub 1–4, rob 1–3; limit 1000). The pool has no
// non-uniform rob text; this one is its shape.
var answersCases = []struct {
	class, family, src, query string
	depth                     int
}{
	{"uniform", "cal", datagen.CalendarSrc(64), "?- Meets(T, s17).", 32},
	{"uniform", "sub", datagen.SubsetsSrc(6), "?- Member(S, e3).", 4},
	{"uniform", "rob", datagen.RobotSrc(8), "?- At(S, p2).", 3},
	{"nonuniform", "cal", datagen.CalendarSrc(64), "?- Meets(T+1, s17).", 32},
	{"nonuniform", "sub", datagen.SubsetsSrc(6), "?- Member(ext(S, e1), e3).", 4},
	{"nonuniform", "rob", datagen.RobotSrc(8), "?- At(move(S, p1, p2), p2).", 3},
}

// answerOnce is one answers operation as the registry runs it, short of
// rendering: a handle from the plan, then enumeration up to the workload's
// tuple cap.
func answerOnce(tb testing.TB, p *Plan, depth int) int {
	ctx := context.Background()
	ans, err := p.Answers(ctx)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	if err := ans.Paths(ctx, depth, func([]symbols.FuncID, []symbols.ConstID) bool {
		n++
		return n < 1000
	}); err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkPlanAnswers times Plan.Answers plus enumeration on a plan whose
// answer specification is already computed — every answers request but the
// first per query and snapshot.
func BenchmarkPlanAnswers(b *testing.B) {
	for _, c := range answersCases {
		b.Run(c.class+"/"+c.family, func(b *testing.B) {
			p, err := deepSnapshot(b, c.src).Prepare(context.Background(), c.query)
			if err != nil {
				b.Fatal(err)
			}
			if answerOnce(b, p, c.depth) == 0 {
				b.Fatal("no answers")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				answerOnce(b, p, c.depth)
			}
		})
	}
}

// TestAnswersHitAllocs gates the warm answers path on a one-tuple answer.
// Measured: 1 allocation, the handle, whose own arrays hold a small
// enumeration's level arena and path; 4 while the enumerator interned terms
// (its term arena and two level buffers besides). Plan.Answers alone made
// 149 allocations before the specification was a value on the plan.
func TestAnswersHitAllocs(t *testing.T) {
	p, err := deepSnapshot(t, datagen.RobotSrc(8)).Prepare(context.Background(), "?- At(S, p3).")
	if err != nil {
		t.Fatal(err)
	}
	if n := answerOnce(t, p, 3); n != 1 {
		t.Fatalf("%d tuples to depth 3, want 1", n)
	}
	handle := testing.AllocsPerRun(200, func() {
		if _, err := p.Answers(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	whole := testing.AllocsPerRun(200, func() { answerOnce(t, p, 3) })
	t.Logf("Plan.Answers: %.0f allocations; with a one-tuple enumeration: %.0f", handle, whole)
	if handle > 1 {
		t.Errorf("Plan.Answers allocates %.0f times on a hit, want the handle alone", handle)
	}
	if whole > 8 {
		t.Errorf("a warm one-tuple answer allocates %.0f times, want at most 8", whole)
	}
}

// answersPoolTexts are the 179 distinct query texts of the benchmark's
// answers workload (bench/gen.go, answersPool), by database.
func answersPoolTexts() map[string][]string {
	texts := map[string][]string{"cal": {"?- Meets(T, X)."}}
	for k := 0; k < 64; k++ {
		texts["cal"] = append(texts["cal"], fmt.Sprintf("?- Meets(T, s%d).", k), fmt.Sprintf("?- Meets(T+1, s%d).", k))
	}
	for k := 0; k < 6; k++ {
		texts["sub"] = append(texts["sub"], fmt.Sprintf("?- Member(S, e%d).", k))
		for j := 0; j < 6; j++ {
			texts["sub"] = append(texts["sub"], fmt.Sprintf("?- Member(ext(S, e%d), e%d).", j, k))
		}
	}
	for k := 0; k < 8; k++ {
		texts["rob"] = append(texts["rob"], fmt.Sprintf("?- At(S, p%d).", k))
	}
	return texts
}

// TestAnswerSpecBytes bounds what serving the whole answers pool leaves
// behind: plans and their answer specifications together stay under 2 MB of
// live heap — keeping what a recompute returns (engine, universe and world
// of 100 enlarged programs) held 27 MB — and the plan cache's own byte
// account, which eviction goes by, is within a factor of two of the truth.
func TestAnswerSpecBytes(t *testing.T) {
	srcs := map[string]string{"cal": datagen.CalendarSrc(64), "sub": datagen.SubsetsSrc(6), "rob": datagen.RobotSrc(8)}
	snaps := make(map[string]*Snapshot)
	for name, src := range srcs {
		snaps[name] = deepSnapshot(t, src)
		// The snapshot's own lazy parts are not the pool's.
		if _, err := snaps[name].Answers(context.Background(), "?- Warm(X)."); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	account := func() (n int) {
		for _, s := range snaps {
			s.plans.mu.Lock()
			n += s.plans.bytes
			s.plans.mu.Unlock()
		}
		return n
	}
	before, accountBefore := heap(), account()
	n := 0
	for name, texts := range answersPoolTexts() {
		for _, q := range texts {
			p, err := snaps[name].Prepare(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			answerOnce(t, p, 2)
			n++
		}
	}
	if n != 179 {
		t.Fatalf("%d texts, want the pool's 179", n)
	}
	retained, accounted := int64(heap())-int64(before), account()-accountBefore
	runtime.KeepAlive(snaps)
	t.Logf("%d texts retain %d bytes; the plan cache accounts for %d", n, retained, accounted)
	if retained > 2<<20 {
		t.Errorf("the pool's plans and answer specifications retain %d bytes, want under 2 MB", retained)
	}
	if int64(accounted) > 2*retained || 2*int64(accounted) < retained {
		t.Errorf("the plan cache accounts for %d bytes where %d are retained: not within 2x", accounted, retained)
	}
}
