// Benchmarks regenerating the experiments of EXPERIMENTS.md, one family per
// table. The same measurements are printed as tables by cmd/fdbench.
package funcdb_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"funcdb"
	"funcdb/internal/congruence"
	"funcdb/internal/datagen"
	"funcdb/internal/facts"
	"funcdb/internal/fixpoint"
	"funcdb/internal/rewrite"
	"funcdb/internal/term"
	"funcdb/internal/topdown"
)

func open(b *testing.B, src string) *funcdb.Database {
	b.Helper()
	db, err := funcdb.Open(src, funcdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// --- T4.1: yes-no query time, temporal vs functional family. ---

func BenchmarkYesNoTemporal(b *testing.B) {
	for _, n := range []int{2, 4, 8, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := datagen.CalendarSrc(n)
			for i := 0; i < b.N; i++ {
				db := open(b, src)
				if _, err := db.Ask(context.Background(), "?- Meets(100, s0)."); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkYesNoFunctional(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := datagen.SubsetsSrc(n)
			for i := 0; i < b.N; i++ {
				db := open(b, src)
				if _, err := db.Ask(context.Background(), "?- Member(ext(0, e0), e0)."); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T4.2: graph specification construction. ---

func benchGraphSpec(b *testing.B, src func(int) string, sizes []int) {
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			text := src(n)
			for i := 0; i < b.N; i++ {
				db := open(b, text)
				st, err := db.Stats(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(st.Reps), "reps")
			}
		})
	}
}

func BenchmarkGraphSpecSubsets(b *testing.B) {
	benchGraphSpec(b, datagen.SubsetsSrc, []int{2, 4, 6, 8})
}

func BenchmarkGraphSpecCalendar(b *testing.B) {
	benchGraphSpec(b, datagen.CalendarSrc, []int{2, 4, 8, 16})
}

func BenchmarkGraphSpecRobot(b *testing.B) {
	benchGraphSpec(b, datagen.RobotSrc, []int{2, 4, 8})
}

// --- T4.3: equational specification construction and size. ---

func BenchmarkEquationalSpecSubsets(b *testing.B) {
	for _, n := range []int{2, 4, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			text := datagen.SubsetsSrc(n)
			for i := 0; i < b.N; i++ {
				db := open(b, text)
				spec, err := db.Graph()
				if err != nil {
					b.Fatal(err)
				}
				eq := funcdb.BuildCanonical(spec).EqSpec()
				b.ReportMetric(float64(eq.Size()), "equations")
			}
		})
	}
}

func BenchmarkEquationalSpecTemporal(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			text := datagen.CalendarSrc(n)
			for i := 0; i < b.N; i++ {
				db := open(b, text)
				spec, err := db.Graph()
				if err != nil {
					b.Fatal(err)
				}
				eq := funcdb.BuildCanonical(spec).EqSpec()
				if eq.Size() != 1 {
					b.Fatalf("|R| = %d, want 1 for temporal", eq.Size())
				}
			}
		})
	}
}

// --- F1: membership from the specification vs bottom-up enumeration. ---

func BenchmarkSpecVsNaiveSpecWalk(b *testing.B) {
	db := open(b, datagen.CalendarSrc(5))
	spec, err := db.Graph()
	if err != nil {
		b.Fatal(err)
	}
	tab := db.Tab()
	meets, _ := tab.LookupPred("Meets", 1, true)
	succ, _ := tab.LookupFunc("succ", 0)
	s0, _ := tab.LookupConst("s0")
	for _, d := range []int{32, 512} {
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			tm := db.Universe().Number(d, succ)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := spec.Has(meets, tm, []funcdb.ConstID{s0}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSpecVsNaiveEnumeration(b *testing.B) {
	prep, err := rewrite.Prepare(datagen.Calendar(5))
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{32, 512} {
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fixpoint.Eval(prep.Program, term.NewUniverse(), facts.NewWorld(),
					fixpoint.Options{MaxDepth: d, Seminaive: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F2: goal-directed (tabled top-down) vs bottom-up on a branching
// workload. Every list over n elements carries Member facts, so the
// bottom-up frontier at depth d has ~n^d tables; the goal chase stays on
// the queried list's spine. ---

func subsetsGoal(b *testing.B, depth int) (*rewrite.Prepared, []funcdb.FuncID) {
	b.Helper()
	prep, err := rewrite.Prepare(datagen.Subsets(3))
	if err != nil {
		b.Fatal(err)
	}
	tab := prep.Program.Tab
	var exts []funcdb.FuncID
	for _, name := range []string{"ext'e0", "ext'e1", "ext'e2"} {
		f, ok := tab.LookupFunc(name, 0)
		if !ok {
			b.Fatalf("missing %s", name)
		}
		exts = append(exts, f)
	}
	var syms []funcdb.FuncID
	for len(syms) < depth {
		syms = append(syms, exts[len(syms)%3])
	}
	return prep, syms
}

func BenchmarkGoalDirectedProve(b *testing.B) {
	for _, depth := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			prep, syms := subsetsGoal(b, depth)
			tab := prep.Program.Tab
			member, _ := tab.LookupPred("Member", 1, true)
			e0, _ := tab.LookupConst("e0")
			for i := 0; i < b.N; i++ {
				u := term.NewUniverse()
				w := facts.NewWorld()
				ev, err := topdown.New(prep, u, w, topdown.Options{})
				if err != nil {
					b.Fatal(err)
				}
				list := u.ApplyString(funcdb.Zero, syms...)
				ok, err := ev.Prove(member, list, []funcdb.ConstID{e0})
				if err != nil || !ok {
					b.Fatalf("Prove = %v, %v", ok, err)
				}
			}
		})
	}
}

func BenchmarkGoalBottomUp(b *testing.B) {
	for _, depth := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			prep, syms := subsetsGoal(b, depth)
			tab := prep.Program.Tab
			member, _ := tab.LookupPred("Member", 1, true)
			e0, _ := tab.LookupConst("e0")
			for i := 0; i < b.N; i++ {
				u := term.NewUniverse()
				w := facts.NewWorld()
				res, err := fixpoint.Eval(prep.Program, u, w, fixpoint.Options{MaxDepth: depth, Seminaive: true})
				if err != nil {
					b.Fatal(err)
				}
				list := u.ApplyString(funcdb.Zero, syms...)
				if !res.Store.HasFn(member, list, []funcdb.ConstID{e0}) {
					b.Fatal("goal not derived")
				}
			}
		})
	}
}

// --- A2: membership through the three representations. ---

func BenchmarkAblationLasso(b *testing.B) {
	db := open(b, datagen.CalendarSrc(7))
	spec, err := db.Graph()
	if err != nil {
		b.Fatal(err)
	}
	lasso, err := funcdb.BuildTemporal(spec)
	if err != nil {
		b.Fatal(err)
	}
	meets, _ := db.Tab().LookupPred("Meets", 1, true)
	s0, _ := db.Tab().LookupConst("s0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lasso.Has(meets, 10000, []funcdb.ConstID{s0})
	}
}

func BenchmarkAblationDFAWalk(b *testing.B) {
	db := open(b, datagen.CalendarSrc(7))
	spec, err := db.Graph()
	if err != nil {
		b.Fatal(err)
	}
	meets, _ := db.Tab().LookupPred("Meets", 1, true)
	succ, _ := db.Tab().LookupFunc("succ", 0)
	s0, _ := db.Tab().LookupConst("s0")
	tm := db.Universe().Number(10000, succ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Has(meets, tm, []funcdb.ConstID{s0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCongruenceClosure(b *testing.B) {
	db := open(b, datagen.CalendarSrc(7))
	spec, err := db.Graph()
	if err != nil {
		b.Fatal(err)
	}
	form := funcdb.BuildCanonical(spec)
	meets, _ := db.Tab().LookupPred("Meets", 1, true)
	succ, _ := db.Tab().LookupFunc("succ", 0)
	s0, _ := db.Tab().LookupConst("s0")
	tm := db.Universe().Number(10000, succ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		form.Has(meets, tm, []funcdb.ConstID{s0})
	}
}

// --- A3: naive vs seminaive bottom-up evaluation. ---

func benchFixpoint(b *testing.B, seminaive bool) {
	prep, err := rewrite.Prepare(datagen.Calendar(6))
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []int{64, 256} {
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fixpoint.Eval(prep.Program, term.NewUniverse(), facts.NewWorld(),
					fixpoint.Options{MaxDepth: d, Seminaive: seminaive}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationNaive(b *testing.B)     { benchFixpoint(b, false) }
func BenchmarkAblationSeminaive(b *testing.B) { benchFixpoint(b, true) }

// --- Micro-benchmarks of the core substrates. ---

func BenchmarkCongruenceClosureSolver(b *testing.B) {
	db := open(b, "Even(0).\nEven(T) -> Even(T+2).\n")
	succ, _ := db.Tab().LookupFunc("succ", 0)
	u := db.Universe()
	for i := 0; i < b.N; i++ {
		s := congruence.NewSolver(u)
		s.Assert(u.Number(0, succ), u.Number(2, succ))
		if !s.Congruent(u.Number(0, succ), u.Number(1000, succ)) {
			b.Fatal("expected congruent")
		}
	}
}

func BenchmarkCompileMeetings(b *testing.B) {
	src := datagen.CalendarSrc(2)
	for i := 0; i < b.N; i++ {
		db := open(b, src)
		if _, err := db.Graph(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A5: the engine's dirty-skip optimization. ---

// The cold solve of subsets(6) is two rounds in which every evaluation is
// productive, so skipping shows in what follows it: the re-solve after one
// more fact, which the tracked engine confines to what the fact reaches.
func benchDirtySkip(b *testing.B, disable bool) {
	src := datagen.SubsetsSrc(6)
	for i := 0; i < b.N; i++ {
		var opts funcdb.Options
		opts.Engine.DisableDirtySkip = disable
		db, err := funcdb.Open(src, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Graph(); err != nil {
			b.Fatal(err)
		}
		if err := db.Extend("Member(0, e0)."); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Graph(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDirtySkipOn(b *testing.B)  { benchDirtySkip(b, false) }
func BenchmarkAblationDirtySkipOff(b *testing.B) { benchDirtySkip(b, true) }

// --- A4 and the serialization path. ---

func BenchmarkMinimize(b *testing.B) {
	db := open(b, datagen.SubsetsSrc(5))
	spec, err := db.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := funcdb.Minimize(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExport(b *testing.B) {
	db := open(b, datagen.SubsetsSrc(5))
	if _, err := db.Graph(); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := db.Export(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSpec times making a snapshot of an exported document.
func BenchmarkLoadSpec(b *testing.B) {
	db := open(b, datagen.SubsetsSrc(5))
	doc, err := db.Document()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := funcdb.LoadSpec(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplain(b *testing.B) {
	db := open(b, datagen.CalendarSrc(5))
	if _, err := db.Graph(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Explain("?- Meets(50, s0)."); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalQuery(b *testing.B) {
	db := open(b, datagen.SubsetsSrc(4))
	if _, err := db.Graph(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := db.Answers(context.Background(), "?- Member(S, e0).")
		if err != nil {
			b.Fatal(err)
		}
		if ans.IsEmpty() {
			b.Fatal("empty answer")
		}
	}
}

// --- Plan-miss path: novel query text → compiled plan, by term depth. ---

// BenchmarkPrepareMiss times Snapshot.Prepare on texts the plan cache has
// never seen (every ask_wide operation). The snapshot is republished,
// untimed, whenever the text pool wraps, so no iteration is a cache hit; a
// collection runs to its end before the timer restarts, so the garbage of
// the republish is not collected on the misses' time.
func BenchmarkPrepareMiss(b *testing.B) {
	fams := []struct {
		name, src string
		n         int
	}{
		{"cal", datagen.CalendarSrc(64), 64},
		{"sub", datagen.SubsetsSrc(6), 6},
		{"rob", datagen.RobotSrc(8), 8},
	}
	const pool = 64
	for _, f := range fams {
		for _, depth := range []int{64, 512, 1000} {
			b.Run(fmt.Sprintf("%s/d%d", f.name, depth), func(b *testing.B) {
				seen := make(map[string]bool, pool)
				var texts []string
				for seed := int64(0); len(texts) < pool && seed < 4*pool; seed++ {
					if q := datagen.DeepQuery(f.name, f.n, depth, seed); !seen[q] {
						seen[q] = true
						texts = append(texts, q)
					}
				}
				ctx := context.Background()
				var snap *funcdb.Snapshot
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%len(texts) == 0 {
						b.StopTimer()
						var err error
						if snap, err = open(b, f.src).Snapshot(); err != nil {
							b.Fatal(err)
						}
						runtime.GC()
						b.StartTimer()
					}
					if _, err := snap.Prepare(ctx, texts[i%len(texts)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
