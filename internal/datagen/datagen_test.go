package datagen

import (
	"context"
	"testing"

	"funcdb/internal/core"
)

func stats(t *testing.T, src string) core.Stats {
	t.Helper()
	db, err := core.Open(src, core.Options{})
	if err != nil {
		t.Fatalf("Open: %v\n%s", err, src)
	}
	st, err := db.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	return st
}

func TestCalendarClustersLinear(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		st := stats(t, CalendarSrc(n))
		if !st.Temporal {
			t.Fatalf("Calendar(%d) not temporal", n)
		}
		if st.Reps != n {
			t.Errorf("Calendar(%d): %d representatives, want %d", n, st.Reps, n)
		}
	}
}

func TestChainPeriod(t *testing.T) {
	for _, k := range []int{1, 2, 4, 7} {
		st := stats(t, ChainSrc(k))
		if st.Reps != k {
			t.Errorf("Chain(%d): %d representatives, want %d", k, st.Reps, k)
		}
		if st.Equations != 1 {
			t.Errorf("Chain(%d): %d equations, want 1", k, st.Equations)
		}
	}
}

// TestSubsetsClustersExponential checks the exponential lower-bound family
// of Theorem 4.2: the list program over n elements has one cluster per
// subset of the universe.
func TestSubsetsClustersExponential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		st := stats(t, SubsetsSrc(n))
		want := 1 << n // the empty list plus every nonempty subset
		if st.Reps != want {
			t.Errorf("Subsets(%d): %d representatives, want %d", n, st.Reps, want)
		}
	}
}

func TestRobotClustersLinear(t *testing.T) {
	prev := 0
	for _, p := range []int{2, 3, 4, 6} {
		st := stats(t, RobotSrc(p))
		if st.Reps <= 0 || st.Reps > 3*p+3 {
			t.Errorf("Robot(%d): %d representatives, expected linear growth", p, st.Reps)
		}
		if st.Reps < prev {
			t.Errorf("Robot reps not monotone: %d after %d", st.Reps, prev)
		}
		prev = st.Reps
	}
}

func TestRandomProgramsParseAndCompile(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		p := RandomAutomaton(4, 2, seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("RandomAutomaton(seed %d): %v", seed, err)
		}
		q := RandomTemporal(3, seed)
		if err := q.Validate(); err != nil {
			t.Fatalf("RandomTemporal(seed %d): %v", seed, err)
		}
		if !q.IsTemporal() {
			t.Fatalf("RandomTemporal(seed %d) not temporal", seed)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	if RandomAutomatonSrc(5, 2, 7) != RandomAutomatonSrc(5, 2, 7) {
		t.Errorf("RandomAutomatonSrc not deterministic")
	}
	if RandomTemporalSrc(4, 9) != RandomTemporalSrc(4, 9) {
		t.Errorf("RandomTemporalSrc not deterministic")
	}
}
