// Command fdbench regenerates the experiment tables of EXPERIMENTS.md: the
// shape reproductions of the paper's complexity results (Theorems 4.1-4.3),
// the motivating specification-vs-enumeration comparison of section 1, and
// the ablations called out in DESIGN.md.
//
// Usage:
//
//	fdbench [t41|t42|t43|f1|f2|a2|a3|a4|all]
//
// Everything timed against a running daemon is bench/'s (bash bench/run.sh).
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"funcdb/internal/canonical"
	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/facts"
	"funcdb/internal/fixpoint"
	"funcdb/internal/minimize"
	"funcdb/internal/rewrite"
	"funcdb/internal/symbols"
	"funcdb/internal/temporal"
	"funcdb/internal/term"
	"funcdb/internal/topdown"
)

func main() {
	which := "all"
	if len(os.Args) > 1 {
		which = os.Args[1]
	}
	ran := false
	run := func(name string, f func()) {
		if which == "all" || which == name {
			f()
			fmt.Println()
			ran = true
		}
	}
	run("t41", t41)
	run("t42", t42)
	run("t43", t43)
	run("f1", f1)
	run("f2", f2)
	run("a2", a2)
	run("a3", a3)
	run("a4", a4)
	if !ran {
		fmt.Fprintln(os.Stderr, "usage: fdbench [t41|t42|t43|f1|f2|a2|a3|a4|all]")
		os.Exit(2)
	}
}

// timeIt reports the median wall time of reps runs of f.
func timeIt(reps int, f func()) time.Duration {
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func open(src string) *core.Database {
	db, err := core.Open(src, core.Options{})
	if err != nil {
		panic(err)
	}
	return db
}

// t41 — Theorem 4.1: yes-no query processing is DEXPTIME-complete for
// functional rules and PSPACE-complete for temporal rules. Reproduced as a
// growth-shape experiment: end-to-end yes-no time (compile + one deep
// query) for the temporal calendar family vs the functional subset family
// as the database grows.
func t41() {
	fmt.Println("T4.1  yes-no query time growth: temporal vs functional family")
	fmt.Println("n     calendar(n) [temporal]   subsets(n) [functional]")
	for _, n := range []int{2, 4, 6, 8, 10, 12} {
		cal := timeIt(3, func() {
			db := open(datagen.CalendarSrc(n))
			if _, err := db.Ask(context.Background(), "?- Meets(100, s0)."); err != nil {
				panic(err)
			}
		})
		sub := timeIt(3, func() {
			db := open(datagen.SubsetsSrc(n))
			if _, err := db.Ask(context.Background(), "?- Member(ext(0, e0), e0)."); err != nil {
				panic(err)
			}
		})
		fmt.Printf("%-5d %-24v %v\n", n, cal, sub)
	}
}

// t42 — Theorem 4.2: the graph specification is computable in DEXPTIME and
// its size bounds are exponential. The subset family realizes the
// exponential lower bound (2^n clusters); the calendar and robot families
// stay linear.
func t42() {
	fmt.Println("T4.2  graph specification size: clusters (edges) and build time")
	fmt.Println("n     subsets(n)                calendar(n)        robot(n)")
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8} {
		row := fmt.Sprintf("%-5d", n)
		for _, src := range []string{datagen.SubsetsSrc(n), datagen.CalendarSrc(n), datagen.RobotSrc(max(n, 2))} {
			db := open(src)
			start := time.Now()
			st, err := db.Stats(context.Background())
			if err != nil {
				panic(err)
			}
			row += fmt.Sprintf("%6d reps %8v   ", st.Reps, time.Since(start).Round(10*time.Microsecond))
		}
		fmt.Println(row)
	}
}

// t43 — Theorem 4.3: equational specifications; temporal programs need a
// single equation while the functional family's R grows with the cluster
// count, and the graph specification is the more economical representation.
func t43() {
	fmt.Println("T4.3  equational specification size |R| (vs graph reps)")
	fmt.Println("n     subsets: |R|  reps      calendar: |R|  reps      chain: |R|  reps")
	for _, n := range []int{2, 3, 4, 5, 6, 7} {
		row := fmt.Sprintf("%-5d", n)
		for _, src := range []string{datagen.SubsetsSrc(n), datagen.CalendarSrc(n), datagen.ChainSrc(n)} {
			db := open(src)
			st, err := db.Stats(context.Background())
			if err != nil {
				panic(err)
			}
			row += fmt.Sprintf("%10d %5d      ", st.Equations, st.Reps)
		}
		fmt.Println(row)
	}
}

// f1 — the section 1 motivation: answering membership from the finite
// specification (a DFA walk over the query term) vs the [RBS87]-style
// alternative of enumerating the fixpoint bottom-up to the required depth.
func f1() {
	fmt.Println("F1    membership at depth d: spec walk vs bottom-up enumeration")
	fmt.Println("d     spec walk     naive enumeration")
	db := open(datagen.CalendarSrc(5))
	spec, err := db.Graph()
	if err != nil {
		panic(err)
	}
	tab := db.Tab()
	meets, _ := tab.LookupPred("Meets", 1, true)
	succ, _ := tab.LookupFunc("succ", 0)
	s0, _ := tab.LookupConst("s0")
	prep, err := rewrite.Prepare(datagen.Calendar(5))
	if err != nil {
		panic(err)
	}
	for _, d := range []int{8, 32, 128, 512, 2048} {
		tm := db.Universe().Number(d, succ)
		walk := timeIt(5, func() {
			if _, err := spec.Has(meets, tm, []symbols.ConstID{s0}); err != nil {
				panic(err)
			}
		})
		naive := timeIt(3, func() {
			u := term.NewUniverse()
			w := facts.NewWorld()
			res, err := fixpoint.Eval(prep.Program, u, w, fixpoint.Options{MaxDepth: d, Seminaive: true})
			if err != nil {
				panic(err)
			}
			m, _ := prep.Program.Tab.LookupPred("Meets", 1, true)
			res.Store.HasFn(m, u.Number(d, succ), []symbols.ConstID{s0})
		})
		fmt.Printf("%-5d %-13v %v\n", d, walk, naive)
	}
}

// f2 — goal-directed (tabled top-down, internal/topdown) vs bottom-up
// enumeration for a single deep goal on the subset family, where every list
// carries facts and the bottom-up frontier grows as n^d.
func f2() {
	fmt.Println("F2    single goal at depth d: goal-directed vs bottom-up")
	fmt.Println("d     goal-directed   (tables)   bottom-up")
	prep, err := rewrite.Prepare(datagen.Subsets(3))
	if err != nil {
		panic(err)
	}
	tab := prep.Program.Tab
	member, _ := tab.LookupPred("Member", 1, true)
	e0, _ := tab.LookupConst("e0")
	ext0, _ := tab.LookupFunc("ext'e0", 0)
	ext1, _ := tab.LookupFunc("ext'e1", 0)
	for _, d := range []int{3, 5, 7, 9} {
		var syms []symbols.FuncID
		for len(syms) < d {
			syms = append(syms, []symbols.FuncID{ext0, ext1}[len(syms)%2])
		}
		var tables int
		tTop := timeIt(3, func() {
			u := term.NewUniverse()
			w := facts.NewWorld()
			ev, err := topdown.New(prep, u, w, topdown.Options{})
			if err != nil {
				panic(err)
			}
			list := u.ApplyString(term.Zero, syms...)
			if ok, err := ev.Prove(member, list, []symbols.ConstID{e0}); err != nil || !ok {
				panic(fmt.Sprintf("Prove = %v, %v", ok, err))
			}
			tables = ev.Stats().Tables
		})
		tBot := timeIt(3, func() {
			u := term.NewUniverse()
			w := facts.NewWorld()
			if _, err := fixpoint.Eval(prep.Program, u, w,
				fixpoint.Options{MaxDepth: d, Seminaive: true}); err != nil {
				panic(err)
			}
		})
		fmt.Printf("%-5d %-15v (%d)%8s %v\n", d, tTop, tables, "", tBot)
	}
}

// a2 — ablation: membership through the three representations of the same
// temporal fixpoint: lasso arithmetic, graph DFA walk, congruence closure.
func a2() {
	fmt.Println("A2    temporal membership: lasso vs DFA walk vs congruence closure")
	db := open(datagen.CalendarSrc(7))
	spec, err := db.Graph()
	if err != nil {
		panic(err)
	}
	lasso, err := temporal.Build(spec)
	if err != nil {
		panic(err)
	}
	form := canonical.Build(spec)
	tab := db.Tab()
	meets, _ := tab.LookupPred("Meets", 1, true)
	succ, _ := tab.LookupFunc("succ", 0)
	s0, _ := tab.LookupConst("s0")
	fmt.Println("day     lasso         dfa walk      congruence closure")
	for _, d := range []int{10, 100, 1000, 10000} {
		tm := db.Universe().Number(d, succ)
		tl := timeIt(5, func() { lasso.Has(meets, d, []symbols.ConstID{s0}) })
		tg := timeIt(5, func() {
			if _, err := spec.Has(meets, tm, []symbols.ConstID{s0}); err != nil {
				panic(err)
			}
		})
		tc := timeIt(5, func() { form.Has(meets, tm, []symbols.ConstID{s0}) })
		fmt.Printf("%-7d %-13v %-13v %v\n", d, tl, tg, tc)
	}
}

// a3 — ablation: seminaive vs naive bottom-up enumeration.
func a3() {
	fmt.Println("A3    bottom-up enumeration to depth d: naive vs seminaive")
	prep, err := rewrite.Prepare(datagen.Calendar(6))
	if err != nil {
		panic(err)
	}
	fmt.Println("d     naive         seminaive")
	for _, d := range []int{32, 128, 512} {
		tn := timeIt(3, func() {
			if _, err := fixpoint.Eval(prep.Program, term.NewUniverse(), facts.NewWorld(),
				fixpoint.Options{MaxDepth: d}); err != nil {
				panic(err)
			}
		})
		ts := timeIt(3, func() {
			if _, err := fixpoint.Eval(prep.Program, term.NewUniverse(), facts.NewWorld(),
				fixpoint.Options{MaxDepth: d, Seminaive: true}); err != nil {
				panic(err)
			}
		})
		fmt.Printf("%-5d %-13v %v\n", d, tn, ts)
	}
}

// a4 — ablation: minimization of the quotient automaton by observable
// equivalence (the optimization the paper's conclusion calls for). Programs
// whose normalization introduces raise/lower helpers can carry observably
// redundant clusters; the subset family is already observably minimal.
func a4() {
	fmt.Println("A4    automaton minimization: representatives before/after")
	fmt.Println("workload              reps   minimized   time")
	workloads := []struct {
		name string
		src  string
	}{
		{"calendar(6)", datagen.CalendarSrc(6)},
		{"subsets(5)", datagen.SubsetsSrc(5)},
		{"robot(5)", datagen.RobotSrc(5)},
		{"even+odd strides", "Even(0).\nEven(T) -> Even(T+2).\nOdd(1).\nOdd(T) -> Odd(T+4).\n"},
		{"protocol", protocolSrc},
	}
	for _, wl := range workloads {
		db := open(wl.src)
		spec, err := db.Graph()
		if err != nil {
			panic(err)
		}
		var states int
		d := timeIt(3, func() {
			m, err := minimize.Minimize(spec)
			if err != nil {
				panic(err)
			}
			states = m.NumStates()
		})
		fmt.Printf("%-20s %5d   %9d   %v\n", wl.name, len(spec.Reps), states, d)
	}
}

const protocolSrc = `
State(0, idle).
State(S, idle)   -> State(login(S), active).
State(S, active) -> State(send(S), active).
State(S, active) -> State(logout(S), idle).
State(S, idle)   -> State(send(S), error).
State(S, idle)   -> State(logout(S), error).
State(S, active) -> State(login(S), error).
State(S, error)  -> State(login(S), error).
State(S, error)  -> State(send(S), error).
State(S, error)  -> State(logout(S), error).
`

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
