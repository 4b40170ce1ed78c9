package engine

import (
	"fmt"
	"slices"
	"testing"

	"funcdb/internal/ast"
	"funcdb/internal/datagen"
	"funcdb/internal/facts"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// walkDays asks for the state of every day from 0 to 2n+1 of a calendar of
// period n, one ChildState from the day before, as Algorithm Q does when it
// publishes the calendar.
func walkDays(t *testing.T, e *Engine, n int) {
	t.Helper()
	s, err := e.StateOf(term.Zero)
	if err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= 2*n+1; day++ {
		if s, err = e.ChildState(e.Prep.Funcs[0], s); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinProbesBucket: a join reads the atoms its fixed argument selects,
// not the whole list. One depth-0 fact into the published Calendar(64) fills
// a period of new cells, each joining Meets × Next; the atoms handed to the
// matcher are at most 3× the rule firings (scanning all 64 Next atoms per
// Meets atom, they were ~65×).
func TestJoinProbesBucket(t *testing.T) {
	const n = 64
	e, _ := enginePair(t, datagen.CalendarSrc(n))
	walkDays(t, e, n)
	tab := e.Prep.Program.Tab
	meets, _ := tab.LookupPred("Meets", 1, true)
	s5, _ := tab.LookupConst("s5")
	before := e.Stats()
	e.AddGroundFact(meets, term.Zero, []symbols.ConstID{s5})
	walkDays(t, e, n)
	after := e.Stats()
	firings, matched := after.RuleFirings-before.RuleFirings, after.Candidates-before.Candidates
	t.Logf("one fact: %d rule firings, %d atoms handed to match, %d cell evaluations", firings, matched, after.CellEvals-before.CellEvals)
	if firings == 0 || matched > 3*firings {
		t.Errorf("one fact fired %d rule bodies and handed %d atoms to match, want at most 3 per firing", firings, matched)
	}
}

// TestJoinIndexFiresAsScan: a probe hands the matcher the atoms of its bucket
// that lie in the literal's window, in the order a scan would reach them, so
// the same bodies fire, once each. Every joinCases program, cold and after
// each of its base facts, fires as many rule bodies and derives as many facts
// through the index as it does when every join scans, and hands the matcher
// no more atoms — fewer in some.
func TestJoinIndexFiresAsScan(t *testing.T) {
	restore := probe
	defer func() { probe = restore }()
	cut := false
	for _, c := range joinCases {
		var stats [2]Stats
		for k, scan := range []bool{false, true} {
			probe = restore
			if scan {
				probe = func(*facts.Set, *facts.World, symbols.PredID, int, symbols.ConstID, int, int) ([]int32, bool) {
					return nil, false
				}
			}
			tracked := joinSteps(t, c, func(_ string, tracked, _ *Engine, _ []ast.Atom) {
				for _, tm := range termsTo(tracked, tracked.Prep.SeedDepth+3, 1500) {
					if _, err := tracked.StateOf(tm); err != nil {
						t.Fatal(err)
					}
				}
			})
			stats[k] = tracked.Stats()
		}
		idx, scan := stats[0], stats[1]
		if idx.RuleFirings != scan.RuleFirings || idx.FactsDerived != scan.FactsDerived || idx.Candidates > scan.Candidates {
			t.Errorf("%s: through the index %d firings, %d facts, %d atoms matched; scanning %d, %d, %d",
				c.name, idx.RuleFirings, idx.FactsDerived, idx.Candidates, scan.RuleFirings, scan.FactsDerived, scan.Candidates)
		}
		cut = cut || idx.Candidates < scan.Candidates
	}
	if !cut {
		t.Error("no join of any joinCases program went through the index")
	}
}

// TestJoinIndexCatches plants an argument index whose buckets miss the atoms
// appended to their list after it was built, which the comparison with the
// fixpoint evaluator in TestCellJoins must catch.
func TestJoinIndexCatches(t *testing.T) {
	restore := probe
	defer func() { probe = restore }()
	type list struct {
		s *facts.Set
		p symbols.PredID
		k int
	}
	built := make(map[list]int32) // the list's length when its index was built
	probe = func(s *facts.Set, w *facts.World, p symbols.PredID, k int, c symbols.ConstID, lo, hi int) ([]int32, bool) {
		hits, ok := restore(s, w, p, k, c, lo, hi)
		if !ok {
			return hits, ok
		}
		n, seen := built[list{s, p, k}]
		if !seen {
			n = int32(len(s.ByPred(p)))
			built[list{s, p, k}] = n
		}
		end, _ := slices.BinarySearch(hits, n)
		return hits[:end], true
	}
	for _, c := range joinCases {
		var caught error
		joinSteps(t, c, func(when string, tracked, _ *Engine, base []ast.Atom) {
			if err := fixpointDiff(tracked, base); err != nil && caught == nil {
				caught = fmt.Errorf("%s, %s: %v", c.name, when, err)
			}
		})
		if caught != nil {
			t.Logf("caught: %v", caught)
			return
		}
	}
	t.Error("the planted bug went unnoticed: buckets missing what was added after they were built derived the fixpoint of every joinCases program")
}
