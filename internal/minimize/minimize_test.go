package minimize

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"funcdb/internal/datagen"
	"funcdb/internal/engine"
	"funcdb/internal/facts"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

func buildSpec(t *testing.T, src string) *specgraph.Spec {
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
	sp, err := specgraph.Build(eng, specgraph.Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return sp
}

// agree checks that the minimized spec answers exactly like the full one
// for every original functional predicate, every known tuple, and every
// term up to the given depth.
func agree(t *testing.T, sp *specgraph.Spec, m *Minimized, depth int) {
	t.Helper()
	w := sp.W
	atoms := make(map[facts.AtomID]bool)
	for _, rep := range sp.Reps {
		for _, a := range sp.Slice(rep) {
			atoms[a] = true
		}
	}
	var walk func(tm term.Term)
	walk = func(tm term.Term) {
		for a := range atoms {
			pred := w.AtomPred(a)
			args := w.TupleArgs(w.AtomTuple(a))
			want, err := sp.Has(pred, tm, args)
			if err != nil {
				t.Fatalf("spec.Has: %v", err)
			}
			got, err := m.Has(pred, tm, args)
			if err != nil {
				t.Fatalf("min.Has: %v", err)
			}
			if got != want {
				t.Errorf("disagreement at %s: full %v, minimized %v",
					sp.U.CompactString(tm, sp.Eng.Prep.Program.Tab), want, got)
			}
		}
		if sp.U.Depth(tm) < depth {
			for _, f := range sp.Alphabet {
				walk(sp.U.Apply(f, tm))
			}
		}
	}
	walk(term.Zero)
}

func TestAlreadyMinimalStaysPut(t *testing.T) {
	sp := buildSpec(t, `
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`)
	m, err := Minimize(sp)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if m.NumStates() != len(sp.Reps) {
		t.Errorf("meetings spec is minimal; got %d classes from %d reps",
			m.NumStates(), len(sp.Reps))
	}
	agree(t, sp, m, 8)
}

// TestHelperInflationCollapses builds a program where normalization's raise
// helpers make the full state congruence strictly finer than observable
// equivalence: Even has period 2, Odd (at 1 mod 4) has period 4, and its
// +4 raise chain stamps different helper facts on days that are observably
// identical. Minimization must collapse them.
func TestHelperInflationCollapses(t *testing.T) {
	sp := buildSpec(t, `
Even(0).
Even(T) -> Even(T+2).
Odd(1).
Odd(T) -> Odd(T+4).
`)
	m, err := Minimize(sp)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if m.NumStates() >= len(sp.Reps) {
		t.Errorf("expected a strict collapse: %d classes from %d reps\n%s",
			m.NumStates(), len(sp.Reps), m.Dump())
	}
	// The observable behaviour has period 4 (days 0..3), so 4 classes.
	if m.NumStates() != 4 {
		t.Errorf("classes = %d, want 4:\n%s", m.NumStates(), m.Dump())
	}
	agree(t, sp, m, 10)
}

func TestSubsetMinimality(t *testing.T) {
	// The subset family's clusters are observably distinct, so
	// minimization must not merge anything.
	sp := buildSpec(t, `
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`)
	m, err := Minimize(sp)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if m.NumStates() != len(sp.Reps) {
		t.Errorf("subset clusters are observably distinct; %d classes from %d reps",
			m.NumStates(), len(sp.Reps))
	}
	agree(t, sp, m, 5)
}

func TestClassOfRejectsForeignSymbol(t *testing.T) {
	sp := buildSpec(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	m, err := Minimize(sp)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	other := symbols.NewTable().Func("zzz", 0) // same id space, but simulate foreign id
	_ = other
	foreign := sp.U.Apply(symbols.FuncID(1000), term.Zero)
	if _, err := m.ClassOf(foreign); err == nil {
		t.Errorf("foreign symbol accepted")
	}
}

// TestMinimizeMatchesReference: keying the partition on integer vectors
// instead of formatted strings changes nothing — the same members in every
// class, the same successor table, the same slices and the same canonical
// numbering as the string-signature version kept in export_test.go.
func TestMinimizeMatchesReference(t *testing.T) {
	srcs := map[string]string{
		"calendar": datagen.CalendarSrc(12), "chain": datagen.ChainSrc(5), "subsets": datagen.SubsetsSrc(4),
		"robot": datagen.RobotSrc(4), "automaton": datagen.RandomAutomatonSrc(6, 3, 9),
		"temporal": datagen.RandomTemporalSrc(5, 4), "bidi": datagen.RandomBidiSrc(5, 2, 8),
		// Normalization helpers inflate the unminimized specification here.
		"helpers": "Start(0).\nStart(T) -> Mid(T+3).\nMid(T) -> Start(T+2).\n",
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.fdb"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(raw)
	}
	shrunk := 0
	for name, src := range srcs {
		sp := buildSpec(t, src)
		got, err := Minimize(sp)
		if err != nil {
			t.Fatalf("%s: Minimize: %v", name, err)
		}
		want, err := minimizeReference(sp)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if got.NumStates() < len(sp.Reps) {
			shrunk++
		}
		if !reflect.DeepEqual(got.Members, want.Members) || !reflect.DeepEqual(got.succ, want.succ) ||
			!reflect.DeepEqual(got.class, want.class) || !reflect.DeepEqual(got.slices, want.slices) || got.class[specgraph.Root] != 0 {
			t.Errorf("%s: minimized specification differs from the reference:\n%s\nreference:\n%s", name, got.Dump(), want.Dump())
		}
	}
	if shrunk == 0 {
		t.Error("no program's specification was made smaller: the comparison exercised no merge")
	}
}
