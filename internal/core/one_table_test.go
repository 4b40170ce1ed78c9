package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"funcdb/internal/facts"
	"funcdb/internal/minimize"
	"funcdb/internal/query"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// TestOneTransitionTable: the successor table T exists once per compiled
// database. Everything that reads it — the live graph specification, the
// published snapshot, a uniform query's answer specification, the minimised
// automaton — holds the same *specgraph.Table, not a copy, and a snapshot's
// Frozen keeps no flat table beside it. The views agree on random terms: the
// table walk gives the state the engine computes for the term from scratch,
// the snapshot's walk the same index, the identity-quotient flat DFA too,
// and the minimised flat DFA observes exactly the original-predicate atoms
// of the slice reached.
func TestOneTransitionTable(t *testing.T) {
	ctx := context.Background()
	flat := reflect.TypeOf(specgraph.FlatDFA{})
	frozen := reflect.TypeOf(specgraph.Frozen{})
	for i := 0; i < frozen.NumField(); i++ {
		ft := frozen.Field(i).Type
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if ft == flat {
			t.Errorf("a snapshot's Frozen keeps a flat table: field %s", frozen.Field(i).Name)
		}
	}
	for name, p := range stablePrograms(t) {
		db, err := Open(p.src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		sp, err := db.Graph()
		if err != nil {
			t.Fatalf("%s: Graph: %v", name, err)
		}
		m, err := minimize.Minimize(sp)
		if err != nil {
			t.Fatalf("%s: Minimize: %v", name, err)
		}
		if snap.spec.Table != sp.Table || m.Spec.Table != sp.Table {
			t.Errorf("%s: graph %p, snapshot %p, minimized %p: not one table", name, sp.Table, snap.spec.Table, m.Spec.Table)
		}
		if &snap.spec.Reps[0] != &sp.Reps[0] || &snap.spec.State[0] != &sp.State[0] {
			t.Errorf("%s: the snapshot copied the representatives", name)
		}
		if n := len(relationR(sp)); snap.spec.NumEquations() != n {
			t.Errorf("%s: the snapshot counts %d equations, the graph's table has %d non-tree edges", name, snap.spec.NumEquations(), n)
		}
		for _, q := range dumpQueries(db) {
			plan, err := snap.Prepare(ctx, q)
			if err != nil {
				t.Fatalf("%s: Prepare(%s): %v", name, q, err)
			}
			spec, err := plan.answerSpec(ctx)
			if err != nil {
				t.Fatalf("%s: answerSpec(%s): %v", name, q, err)
			}
			if uniform := spec.Table() == sp.Table; uniform != query.IsUniform(plan.q) {
				t.Errorf("%s: %s: answer specified over the snapshot's table: %v", name, q, uniform)
			}
		}

		fz := sp.Freeze()
		idFlat, minFlat := fz.Flat(), fz.FlatOver(m.Quotient())
		probes := make(map[facts.AtomID]bool)
		for i := range sp.Reps {
			for _, a := range sp.SliceAt(i) {
				probes[a] = true
			}
		}
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 100 && len(sp.Alphabet) > 0; trial++ {
			fns := make([]symbols.FuncID, rng.Intn(13))
			syms := make([]int32, len(fns))
			for i := range fns {
				syms[i] = int32(rng.Intn(len(sp.Alphabet)))
				fns[i] = sp.Alphabet[syms[i]]
			}
			tm := db.universe.ApplyString(term.Zero, fns...)
			at, _, ok := sp.Walk(fns)
			if !ok {
				t.Fatalf("%s: walk of %v left the alphabet", name, fns)
			}
			if i, err := sp.Index(sp.U, tm); err != nil || i != at {
				t.Errorf("%s: %v: Index = %v, %v; the table walks to %v", name, fns, i, err, at)
			}
			if i, err := snap.spec.Index(db.universe, tm); err != nil || i != at {
				t.Errorf("%s: %v: frozen Index = %v, %v; the table walks to %v", name, fns, i, err, at)
			}
			if st, err := db.Engine.StateOf(tm); err != nil || st != sp.State[at] {
				t.Errorf("%s: %v: the table's state %d, the engine's %d (%v)", name, fns, sp.State[at], st, err)
			}
			if got := snap.spec.WalkIndex(syms); got != at {
				t.Errorf("%s: %v: the snapshot walks to %d, the table %d", name, fns, got, at)
			}
			if got := idFlat.Walk(syms); got != at {
				t.Errorf("%s: %v: identity flat DFA reaches %d, the table %d", name, fns, got, at)
			}
			class := minFlat.Walk(syms)
			in := make(map[facts.AtomID]bool)
			for _, a := range sp.SliceAt(int(at)) {
				in[a] = true
			}
			for a := range probes {
				w := sp.W
				has, err := sp.Has(w.AtomPred(a), tm, w.TupleArgs(w.AtomTuple(a)))
				if err != nil || has != in[a] || minFlat.StateHas(class, a) != in[a] {
					t.Errorf("%s: %v: atom %d: slice %v, Spec.Has %v (%v), minimised flat DFA %v", name, fns, a, in[a], has, err, minFlat.StateHas(class, a))
				}
			}
		}
	}
}
