package specgraph_test

import (
	"math/rand"
	"testing"

	"funcdb/internal/datagen"
	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/minimize"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

func buildSpecExt(t *testing.T, src string) *specgraph.Spec {
	t.Helper()
	prog := parser.MustParse(src).Program
	prep, err := rewrite.Prepare(prog)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	eng, err := engine.New(prep, term.NewUniverse(), facts.NewWorld(), engine.Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	sp, err := specgraph.Build(eng, specgraph.Options{MaxReps: 10000})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sp
}

// mapWalk runs the term-keyed successor accessor (a map lookup until the
// table became the one encoding; now a walk of its own per step) along a
// symbol string and returns the representative reached.
func mapWalk(t *testing.T, sp *specgraph.Spec, syms []symbols.FuncID) term.Term {
	t.Helper()
	cur := term.Zero
	for _, fn := range syms {
		next, ok := sp.Successor(cur, fn)
		if !ok {
			t.Fatalf("map walk: missing edge from %v via %v", cur, fn)
		}
		cur = next
	}
	return cur
}

// flatWalk translates the symbol string and runs the flat table walk.
func flatWalk(t *testing.T, fd *specgraph.FlatDFA, syms []symbols.FuncID) int32 {
	t.Helper()
	idx := make([]int32, len(syms))
	for i, fn := range syms {
		j, ok := fd.SymIndex(fn)
		if !ok {
			t.Fatalf("flat walk: symbol %v not in alphabet", fn)
		}
		idx[i] = j
	}
	return fd.Walk(idx)
}

// TestFlatWalkMatchesMapWalk is the property test behind the flat-table hot
// path: on generated specifications — linear, periodic, exponential-cluster
// and random (including equational programs with nontrivial merges) — the
// flat DFA built over the identity quotient AND the one built over the
// minimized observable-equivalence quotient must agree with the term-keyed
// successor walk on every original-predicate observation, for random symbol
// strings.
func TestFlatWalkMatchesMapWalk(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"calendar", datagen.CalendarSrc(6)},
		{"chain", datagen.ChainSrc(5)},
		{"subsets", datagen.SubsetsSrc(3)},
		{"robot", datagen.RobotSrc(3)},
		{"random_automaton", datagen.RandomAutomatonSrc(5, 3, 42)},
		{"random_bidi", datagen.RandomBidiSrc(3, 2, 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := buildSpecExt(t, tc.src)
			idFrozen := sp.Freeze()
			idFlat := idFrozen.Flat()
			if idFlat == nil {
				t.Fatal("identity-quotient flat tables not built")
			}
			m, err := minimize.Minimize(sp)
			if err != nil {
				t.Fatalf("Minimize: %v", err)
			}
			minFrozen := sp.FreezeQuotient(m.Quotient())
			minFlat := minFrozen.Flat()
			if minFlat == nil {
				t.Fatal("minimized-quotient flat tables not built")
			}
			if minFlat.NumStates() > idFlat.NumStates() {
				t.Errorf("minimized tables larger than identity: %d > %d",
					minFlat.NumStates(), idFlat.NumStates())
			}

			// The probe universe: every original-predicate atom observable
			// anywhere, so negative memberships are exercised too.
			probeSet := map[facts.AtomID]bool{}
			for _, rep := range sp.Reps {
				for _, a := range sp.Slice(rep) {
					probeSet[a] = true
				}
			}
			probes := make([]facts.AtomID, 0, len(probeSet))
			for a := range probeSet {
				probes = append(probes, a)
			}

			rng := rand.New(rand.NewSource(1))
			for trial := 0; trial < 200; trial++ {
				syms := make([]symbols.FuncID, rng.Intn(13))
				for i := range syms {
					syms[i] = sp.Alphabet[rng.Intn(len(sp.Alphabet))]
				}
				rep := mapWalk(t, sp, syms)
				want := map[facts.AtomID]bool{}
				for _, a := range sp.Slice(rep) {
					want[a] = true
				}
				idState := flatWalk(t, idFlat, syms)
				minState := flatWalk(t, minFlat, syms)
				for _, a := range probes {
					if got := idFlat.StateHas(idState, a); got != want[a] {
						t.Fatalf("identity flat disagrees on atom %d after %v: got %v, map walk %v",
							a, syms, got, want[a])
					}
					if got := minFlat.StateHas(minState, a); got != want[a] {
						t.Fatalf("minimized flat disagrees on atom %d after %v: got %v, map walk %v",
							a, syms, got, want[a])
					}
				}
			}
		})
	}
}
