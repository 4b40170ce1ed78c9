package specgraph_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
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

func buildSpecExt(t testing.TB, src string) *specgraph.Spec {
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

// lawFamilies are the specifications the walk law runs over: the six
// generated families — linear, periodic, exponential-cluster and random
// (including equational programs with nontrivial merges) — a program with
// no function symbol, and the corpus.
func lawFamilies(t testing.TB) []lawCase {
	cases := []lawCase{
		{name: "no_symbols", src: "P(a).\nP(X) -> Q(X).\n"},
		{name: "calendar", src: datagen.CalendarSrc(6)},
		{name: "chain", src: datagen.ChainSrc(5)},
		{name: "subsets", src: datagen.SubsetsSrc(3)},
		{name: "robot", src: datagen.RobotSrc(3)},
		{name: "random_automaton", src: datagen.RandomAutomatonSrc(5, 3, 42)},
		{name: "random_bidi", src: datagen.RandomBidiSrc(3, 2, 7)},
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.fdb"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	sort.Strings(paths)
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, lawCase{name: strings.TrimSuffix(filepath.Base(p), ".fdb"), src: string(src)})
	}
	for i := range cases {
		c := &cases[i]
		c.sp = buildSpecExt(t, c.src)
		m, err := minimize.Minimize(c.sp)
		if err != nil {
			t.Fatalf("%s: Minimize: %v", c.name, err)
		}
		q := m.Quotient()
		fz := c.sp.Freeze()
		c.flats = []lawFlat{{"identity", fz.Flat(), nil}, {"minimised", fz.FlatOver(q), q}}
	}
	return cases
}

type lawCase struct {
	name, src string
	sp        *specgraph.Spec
	flats     []lawFlat // identity, then minimised
}

type lawFlat struct {
	name string
	fd   *specgraph.FlatDFA
	q    specgraph.Quotient // nil: the identity
}

// walkLengths are the lengths the walk law tries: the shortest (0–3), the
// table's lasso (a−1, a, a+p, …) over a one-symbol alphabet, one string of
// 2^20+3 symbols and random lengths up to 4 096.
func walkLengths(c *lawCase, rng *rand.Rand) []int {
	ls := []int{0, 1, 2, 3, 63, 64, 65, 1<<20 + 3}
	if l := c.sp.Lasso(); l != nil {
		a, p := l.Tail, l.Period
		ls = append(ls, a-1, a, a+p, a+p+1, a+2*p+1)
	}
	for i := 0; i < 24; i++ {
		ls = append(ls, rng.Intn(4097))
	}
	return ls
}

// walkLaw runs kernels(f) of every flat DFA of c over random strings of
// walkLengths and reports, once per kernel, a disagreement with the state
// Table.Walk reaches (its class, under a quotient). A kernel that panics
// disagrees.
func walkLaw(c *lawCase, kernels func(*specgraph.FlatDFA) []specgraph.Kernel, rng *rand.Rand) map[string]string {
	type run struct {
		flat lawFlat
		k    specgraph.Kernel
	}
	var runs []run
	for _, f := range c.flats {
		for _, k := range kernels(f.fd) {
			runs = append(runs, run{f, k})
		}
	}
	fails := map[string]string{}
	k := len(c.sp.Alphabet)
	for _, n := range walkLengths(c, rng) {
		if n < 0 || (k == 0 && n > 0) {
			continue
		}
		idx, fns := make([]int32, n), make([]symbols.FuncID, n)
		for i := range idx {
			j := rng.Intn(k)
			idx[i], fns[i] = int32(j), c.sp.Alphabet[j]
		}
		want, _, ok := c.sp.Walk(fns)
		if !ok {
			fails["Table.Walk"] = fmt.Sprintf("%s: Table.Walk refused a string over its own alphabet", c.name)
			continue
		}
		for _, r := range runs {
			if _, seen := fails[r.k.Name]; seen {
				continue
			}
			exp := want
			if r.flat.q != nil {
				exp = r.flat.q[want]
			}
			if got, err := runKernel(r.k, idx); err != nil || got != exp {
				fails[r.k.Name] = fmt.Sprintf("%s/%s: kernel %q over %d symbols: state %d (%v), Table.Walk %d",
					c.name, r.flat.name, r.k.Name, n, got, err, exp)
			}
		}
	}
	return fails
}

func runKernel(k specgraph.Kernel, syms []int32) (state int32, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return k.Walk(syms), nil
}

// TestFlatWalkMatchesMapWalk is the property test behind the flat-table hot
// path. On every family the flat DFA built over the identity quotient AND
// the one built over the minimised observable-equivalence quotient agree
// with the term-keyed successor walk on every original-predicate
// observation, for random symbol strings; and the walk law holds: the walk
// of either reaches the state Table.Walk reaches, or its class, at every
// length walkLengths names.
func TestFlatWalkMatchesMapWalk(t *testing.T) {
	for _, c := range lawFamilies(t) {
		t.Run(c.name, func(t *testing.T) {
			sp, idFlat, minFlat := c.sp, c.flats[0].fd, c.flats[1].fd
			if minFlat.NumStates() > idFlat.NumStates() {
				t.Errorf("minimized tables larger than identity: %d > %d",
					minFlat.NumStates(), idFlat.NumStates())
			}
			rng := rand.New(rand.NewSource(1))
			for _, fail := range walkLaw(&c, (*specgraph.FlatDFA).Kernels, rng) {
				t.Error(fail)
			}
			if len(sp.Alphabet) == 0 {
				return
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

// TestWalkKernelsCatch plants the bug a walk could have — it stops one
// symbol short — and requires the walk law to catch it on some family.
func TestWalkKernelsCatch(t *testing.T) {
	caught := map[string]string{}
	var planted []string
	rng := rand.New(rand.NewSource(1))
	for _, c := range lawFamilies(t) {
		for _, f := range c.flats {
			for _, k := range f.fd.PlantedKernels() {
				planted = append(planted, k.Name)
			}
		}
		for name, fail := range walkLaw(&c, (*specgraph.FlatDFA).PlantedKernels, rng) {
			caught[name] = fail
		}
	}
	for _, name := range []string{"last symbol dropped"} {
		if !strings.Contains(strings.Join(planted, "\n"), name) {
			t.Errorf("bug %q was never planted", name)
		} else if fail, ok := caught[name]; !ok {
			t.Errorf("the planted bug %q went unnoticed", name)
		} else {
			t.Logf("caught: %s", fail)
		}
	}
}

// FuzzFlatWalk: random strings over each family's alphabet — the input's
// bytes, each taken modulo the alphabet's size, repeated up to 256 times so
// that short inputs still reach deep into a lasso — walked on the identity
// and minimised flat DFAs, against Table.Walk.
func FuzzFlatWalk(f *testing.F) {
	cases := lawFamilies(f)
	f.Add(uint8(0), uint8(0), []byte{0})
	f.Add(uint8(2), uint8(40), []byte{0, 1, 2, 1, 0})
	f.Add(uint8(3), uint8(255), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Fuzz(func(t *testing.T, family, repeat uint8, data []byte) {
		c := &cases[int(family)%len(cases)]
		k := len(c.sp.Alphabet)
		if k == 0 {
			return
		}
		var idx []int32
		var fns []symbols.FuncID
		for r := 0; r <= int(repeat); r++ {
			for _, b := range data {
				j := int(b) % k
				idx, fns = append(idx, int32(j)), append(fns, c.sp.Alphabet[j])
			}
		}
		want, _, ok := c.sp.Walk(fns)
		if !ok {
			t.Fatalf("%s: Table.Walk refused a string over its own alphabet", c.name)
		}
		for _, fl := range c.flats {
			exp := want
			if fl.q != nil {
				exp = fl.q[want]
			}
			for _, kn := range fl.fd.Kernels() {
				if got, err := runKernel(kn, idx); err != nil || got != exp {
					t.Fatalf("%s/%s: kernel %q over %d symbols: state %d (%v), Table.Walk %d",
						c.name, fl.name, kn.Name, len(idx), got, err, exp)
				}
			}
		}
	})
}

var walkSink int32

// TestWalkKernelsZeroAlloc is the flat walk's allocation gate: FlatDFA.Walk
// allocates nothing per call, at any length. No served path walks a flat
// DFA (a ground plan walks the table once, when it is built), so this is
// where the walk's zero-allocation promise is held.
func TestWalkKernelsZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name, src string
		depth     int
	}{
		{"sub", datagen.SubsetsSrc(6), 63},
		{"sub", datagen.SubsetsSrc(6), 1023},
		{"rob", datagen.RobotSrc(8), 1023},
		{"cal", datagen.CalendarSrc(64), 1023},
	} {
		sp := buildSpecExt(t, c.src)
		fd := sp.Freeze().Flat()
		rng := rand.New(rand.NewSource(1))
		syms := make([]int32, c.depth)
		for i := range syms {
			syms[i] = int32(rng.Intn(len(sp.Alphabet)))
		}
		want := fd.Walk(syms)
		if n := testing.AllocsPerRun(200, func() {
			if fd.Walk(syms) != want {
				t.Fatalf("%s/d%d: Walk flipped", c.name, c.depth)
			}
		}); n != 0 {
			t.Errorf("%s/d%d: Walk allocates %.1f per call, want 0", c.name, c.depth, n)
		}
	}
}

// BenchmarkFlatWalk times Walk on the identity flat DFAs of the three
// benchmark families, over random strings of their alphabets at three
// depths, and reports the cost per symbol.
func BenchmarkFlatWalk(b *testing.B) {
	families := []struct{ name, src string }{
		{"cal", datagen.CalendarSrc(64)},
		{"sub", datagen.SubsetsSrc(6)},
		{"rob", datagen.RobotSrc(8)},
	}
	for _, fam := range families {
		sp := buildSpecExt(b, fam.src)
		fd := sp.Freeze().Flat()
		rng := rand.New(rand.NewSource(1))
		for _, d := range []int{64, 512, 1023} {
			syms := make([]int32, d)
			for i := range syms {
				syms[i] = int32(rng.Intn(len(sp.Alphabet)))
			}
			b.Run(fmt.Sprintf("%s/d%d", fam.name, d), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					walkSink = fd.Walk(syms)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d), "ns/sym")
			})
		}
	}
}
