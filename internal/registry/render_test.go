package registry

import (
	"context"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/datagen"
)

// renderCases are rendered answers as the answers endpoint serves them, up
// to the workload's 1 000-tuple cap: the calendar's whole answer to a day
// past its cycle, one subset and one robot query at the depths of the
// workload's range, and the dense Subsets(10) answer whose terms the
// enumerator used to intern by the thousand.
var renderCases = []struct {
	name, src, query string
	depth            int
}{
	{"cal", datagen.CalendarSrc(64), "?- Meets(T, X).", 64},
	{"sub", datagen.SubsetsSrc(6), "?- Member(S, e3).", 4},
	{"rob", datagen.RobotSrc(8), "?- At(S, p3).", 4},
	{"sub10", datagen.SubsetsSrc(10), "?- Member(S, e3).", 8},
}

const renderLimit = 1000

// renderPlan prepares a case's query on a fresh snapshot and computes its
// answer specification, so what follows times the hit path alone.
func renderPlan(tb testing.TB, src, query string) *core.Plan {
	tb.Helper()
	db, err := core.Open(src, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	p, err := snap.Prepare(context.Background(), query)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Answers(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkRender times PlanAnswers on a plan whose specification is
// computed: a handle, the enumeration and the rendering of every tuple, the
// answers endpoint's work short of JSON.
func BenchmarkRender(b *testing.B) {
	ctx := context.Background()
	for _, c := range renderCases {
		b.Run(c.name, func(b *testing.B) {
			p := renderPlan(b, c.src, c.query)
			opts := []core.Option{core.WithDepth(c.depth), core.WithLimit(renderLimit)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := PlanAnswers(ctx, p, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRenderAllocs gates the rendering of an answer: at most two
// allocations per tuple (its term's string and a share of the tuple slice's
// growth) plus one per data argument, over what PlanAnswers allocates once
// whatever the answer — the handle; its options are resolved once, in place.
// The enumeration's scratch starts in the handle, so the robot's one-tuple
// answer makes three. Before answers were paths the enumerator interned
// every live node and rendered each term through a fresh symbol slice, name
// slice and join; before options were values their two resolutions made two
// more.
func TestRenderAllocs(t *testing.T) {
	const perRequest = 1
	ctx := context.Background()
	for _, c := range renderCases {
		p := renderPlan(t, c.src, c.query)
		opts := []core.Option{core.WithDepth(c.depth), core.WithLimit(renderLimit)}
		tuples, _, err := PlanAnswers(ctx, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) == 0 {
			t.Fatalf("%s: no answers", c.name)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := PlanAnswers(ctx, p, opts...); err != nil {
				t.Fatal(err)
			}
		})
		arity := len(tuples[0].Args)
		t.Logf("%s: %d tuples of %d data arguments in %.0f allocations", c.name, len(tuples), arity, allocs)
		if max := perRequest + (2+arity)*len(tuples); allocs > float64(max) {
			t.Errorf("%s: %d tuples of %d data arguments in %.0f allocations, want at most %d", c.name, len(tuples), arity, allocs, max)
		}
	}
}
