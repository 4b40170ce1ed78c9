package core

import (
	"context"
	"testing"

	"funcdb/internal/specgraph"
	"funcdb/internal/term"
)

// rEquation is one equation of the relation R (§3.5) as the tests read it: a
// Potential term that did not become Active, and the representative of its
// cluster.
type rEquation struct{ rep, potential term.Term }

// relationR reads R off the successor table: one equation per non-tree edge
// of T, in examination order, its Potential term interned in the Spec's
// universe.
func relationR(sp *specgraph.Spec) []rEquation {
	var out []rEquation
	sp.NonTree(func(from, via, to int32) {
		out = append(out, rEquation{sp.Reps[to], sp.U.Apply(sp.Alphabet[via], sp.Reps[from])})
	})
	return out
}

// TestREqualsNonTreeEdges: the relation R of the equational specification is
// exactly the non-tree edges of T, in examination order — the cells (i, j)
// of T, row by row, whose successor is not the representative Alphabet[j]
// applied to Reps[i]. Each equation's Potential term is that term, at or past
// the seed depth, and has its representative's state; |R| is what Stats
// reports. It holds for every corpus program, every datagen family and every
// republish the write path is gated on (robdeep included).
func TestREqualsNonTreeEdges(t *testing.T) {
	check := func(name string, db *Database) {
		t.Helper()
		sp, err := db.Graph()
		if err != nil {
			t.Fatalf("%s: Graph: %v", name, err)
		}
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		u := sp.U
		type edge struct{ from, via, to int32 }
		var want []edge
		for i := range sp.Reps {
			for j, to := range sp.Row(int32(i)) {
				r := sp.Reps[to]
				if r != term.Zero && u.Child(r) == sp.Reps[i] && u.Top(r) == sp.Alphabet[j] {
					continue // the tree edge Reps[to] hangs from
				}
				want = append(want, edge{int32(i), int32(j), to})
			}
		}
		got := relationR(sp)
		if len(got) != len(want) {
			t.Fatalf("%s: |R| = %d, T has %d non-tree edges", name, len(got), len(want))
		}
		for n, e := range got {
			w := want[n]
			p := e.potential
			if e.rep != sp.Reps[w.to] || p == term.Zero || u.Child(p) != sp.Reps[w.from] || u.Top(p) != sp.Alphabet[w.via] {
				t.Fatalf("%s: equation %d is %s = %s; the non-tree edge %d -%d-> %d says otherwise", name, n,
					u.CompactString(p, db.Tab()), u.CompactString(e.rep, db.Tab()), w.from, w.via, w.to)
			}
			if u.Depth(p) < sp.SeedDepth {
				t.Errorf("%s: equation %d: Potential term of depth %d, below the seed depth %d", name, n, u.Depth(p), sp.SeedDepth)
			}
			if st, err := db.Engine.StateOf(p); err != nil || st != sp.State[w.to] {
				t.Errorf("%s: equation %d: the Potential term's state %d (%v), its representative's %d", name, n, st, err, sp.State[w.to])
			}
		}
		st, err := db.Stats(context.Background())
		if err != nil {
			t.Fatalf("%s: Stats: %v", name, err)
		}
		if st.Equations != len(want) || snap.Stats().Equations != len(want) {
			t.Errorf("%s: Stats report %d and %d equations; T has %d non-tree edges", name, st.Equations, snap.Stats().Equations, len(want))
		}
	}
	for name, p := range stablePrograms(t) {
		db, err := Open(p.src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, db)
	}
	for _, c := range publishCases() {
		db := openPublished(t, c.src)
		if err := db.Extend(c.fact); err != nil {
			t.Fatalf("%s: Extend(%s): %v", c.name, c.fact, err)
		}
		check(c.name+" republished", db)
	}
}
