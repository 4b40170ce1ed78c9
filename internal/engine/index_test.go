package engine

import (
	"testing"

	"funcdb/internal/ast"
	"funcdb/internal/datagen"
	"funcdb/internal/normform"
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

// scanOnly clears the probe key of every compiled body literal of e, so
// that each of its joins scans its extents.
func scanOnly(e *Engine) {
	for _, rules := range [][]normform.Rule{e.nodeRules, e.globalRules} {
		for i := range rules {
			for j := range rules[i].Body {
				rules[i].Body[j].Key = -1
			}
		}
	}
}

// TestJoinIndexFiresAsScan: a probe hands the matcher the atoms of its bucket
// that lie in the literal's window, in the order a scan would reach them, so
// the same bodies fire, once each. Every joinCases program, cold and after
// each of its base facts, fires as many rule bodies and derives as many facts
// through the index as it does when every join scans, and hands the matcher
// no more atoms — fewer in some.
func TestJoinIndexFiresAsScan(t *testing.T) {
	cut := false
	for _, c := range joinCases {
		var stats [2]Stats
		for k, scan := range []bool{false, true} {
			tracked := joinSteps(t, c, func(_ string, tracked, _ *Engine, _ []ast.Atom) {
				if scan {
					scanOnly(tracked)
				}
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
