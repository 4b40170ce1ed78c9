package temporal

import (
	"testing"

	"funcdb/internal/symbols"
)

func TestProgressionContains(t *testing.T) {
	p := Progression{Start: 1, Stride: 3}
	for n, want := range map[int]bool{0: false, 1: true, 2: false, 4: true, 7: true, 3: false, 100: true} {
		if got := p.Contains(n); got != want {
			t.Errorf("Contains(%d) = %v, want %v", n, got, want)
		}
	}
	s := Progression{Start: 4, Stride: 0}
	if !s.Contains(4) || s.Contains(8) {
		t.Errorf("singleton broken")
	}
}

func TestMeetsEverySecondDay(t *testing.T) {
	ts := buildTemporal(t, `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`)
	tab := ts.Graph.Tab
	meets, _ := tab.LookupPred("Meets", 1, true)
	tony, _ := tab.LookupConst("tony")
	jan, _ := tab.LookupConst("jan")
	pt := ts.Progressions(meets, []symbols.ConstID{tony})
	if got := FormatProgressions(pt); got != "{0 + 2k}" {
		t.Errorf("tony's days = %s, want {0 + 2k}", got)
	}
	pj := ts.Progressions(meets, []symbols.ConstID{jan})
	if got := FormatProgressions(pj); got != "{1 + 2k}" {
		t.Errorf("jan's days = %s, want {1 + 2k}", got)
	}
}

func TestProgressionsWithPrefix(t *testing.T) {
	ts := buildTemporal(t, `
Backup(1).
Backup(T) -> Backup(T+3).
`)
	tab := ts.Graph.Tab
	backup, _ := tab.LookupPred("Backup", 0, true)
	ps := ts.Progressions(backup, nil)
	if got := FormatProgressions(ps); got != "{1 + 3k}" {
		t.Errorf("backup days = %s, want {1 + 3k}", got)
	}
	// Spot-check against direct membership.
	for n := 0; n <= 30; n++ {
		inP := false
		for _, p := range ps {
			if p.Contains(n) {
				inP = true
			}
		}
		if inP != ts.Has(backup, n, nil) {
			t.Errorf("day %d: progression %v, Has %v", n, inP, ts.Has(backup, n, nil))
		}
	}
}

func TestProgressionsCollapseToEveryDay(t *testing.T) {
	ts := buildTemporal(t, `
A(0).
B(1).
A(T) -> A(T+2).
B(T) -> B(T+2).
A(T) -> Busy(T).
B(T) -> Busy(T).
`)
	tab := ts.Graph.Tab
	busy, _ := tab.LookupPred("Busy", 0, true)
	ps := ts.Progressions(busy, nil)
	// Busy holds every day: the two residues collapse to stride 1.
	if got := FormatProgressions(ps); got != "{0 + 1k}" {
		t.Errorf("busy days = %s, want {0 + 1k}", got)
	}
}

func TestProgressionsEmpty(t *testing.T) {
	ts := buildTemporal(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	tab := ts.Graph.Tab
	even, _ := tab.LookupPred("Even", 0, true)
	never := tab.Pred("Never", 0, true)
	if got := FormatProgressions(ts.Progressions(never, nil)); got != "{}" {
		t.Errorf("never-holding predicate = %s", got)
	}
	if got := FormatProgressions(ts.Progressions(even, nil)); got != "{0 + 2k}" {
		t.Errorf("even days = %s", got)
	}
}

// TestProgressionsMatchHasEverywhere is the general property: for every
// example and every atom, progression membership equals lasso membership on
// a long day range.
func TestProgressionsMatchHasEverywhere(t *testing.T) {
	sources := []string{
		`
Backup(1).
Backup(T) -> Backup(T+3).
Audit(4).
Audit(T) -> Audit(T+6).
Backup(T), Audit(T) -> Busy(T).
`,
		`
Boot(0).
Boot(T), NotLast(T) -> Boot(T+1).
@functional NotLast/1.
NotLast(0).
NotLast(1).
Boot(2) -> Steady(3).
Steady(T) -> Steady(T+1).
`,
	}
	for _, src := range sources {
		ts := buildTemporal(t, src)
		tab := ts.Graph.Tab
		for p := symbols.PredID(0); int(p) < tab.NumPreds(); p++ {
			info := tab.PredInfo(p)
			if !info.Functional || info.Arity != 0 || !ts.Graph.OriginalPreds[p] {
				continue
			}
			ps := ts.Progressions(p, nil)
			for n := 0; n <= 60; n++ {
				inP := false
				for _, pr := range ps {
					if pr.Contains(n) {
						inP = true
					}
				}
				if inP != ts.Has(p, n, nil) {
					t.Errorf("%s(%d): progressions %v disagree with Has", info.Name, n, ps)
				}
			}
		}
	}
}
