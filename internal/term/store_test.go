package term

import (
	"math/rand"
	"sync"
	"testing"

	"funcdb/internal/symbols"
)

// app is one application f(child), the key a universe interns.
type app struct {
	f     symbols.FuncID
	child Term
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestStoreInterleavings drives one root universe through random interns and
// freezes, and checks every view taken on the way against what the root held
// then: handles are dense in insertion order; a view resolves exactly its
// prefix, and a term the root interned later is new to it — it panics if
// asked to intern it and never hands out the root's later handle; an
// overlay's handles continue at the view's length, Reset forgets them, and
// two overlays over one view never see each other.
func TestStoreInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	u := NewUniverse()
	apps := []app{{symbols.NoFunc, None}} // apps[t] is what t was interned as
	type view struct {
		v *Universe
		n int
	}
	var views []view
	check := func(vw view) {
		if vw.v.Size() != vw.n {
			t.Fatalf("view taken at %d terms has Size %d", vw.n, vw.v.Size())
		}
		o1, o2 := NewUniverseOver(vw.v), NewUniverseOver(vw.v)
		for id := 1; id < len(apps); id++ {
			a := apps[id]
			if int(a.child) >= vw.n {
				continue // built on a term the view does not hold
			}
			if id < vw.n {
				if got := vw.v.Apply(a.f, a.child); got != Term(id) {
					t.Fatalf("view at %d: Apply of term %d = %d", vw.n, id, got)
				}
				if got := o1.Apply(a.f, a.child); got != Term(id) || o1.Size() != vw.n {
					t.Fatalf("overlay at %d: Apply of base term %d = %d, Size %d", vw.n, id, got, o1.Size())
				}
				continue
			}
			// The root interned this term after the view was taken.
			if !panics(func() { vw.v.Apply(a.f, a.child) }) {
				t.Fatalf("view at %d interned term %d of the root's future", vw.n, id)
			}
			if vw.v.Size() != vw.n {
				t.Fatalf("view at %d grew to %d", vw.n, vw.v.Size())
			}
			before := o1.Size()
			got := o1.Apply(a.f, a.child)
			if int(got) != before || o1.Size() != before+1 {
				t.Fatalf("overlay at %d: future term %d got handle %d at Size %d", vw.n, id, got, before)
			}
			if o1.Top(got) != a.f || o1.Child(got) != a.child || o1.Depth(got) != o1.Depth(a.child)+1 {
				t.Fatalf("overlay at %d: term %d read back wrong", vw.n, got)
			}
			if again := o1.Apply(a.f, a.child); again != got {
				t.Fatalf("overlay at %d interned one term twice: %d, %d", vw.n, got, again)
			}
			if o2.Size() != vw.n {
				t.Fatalf("overlay at %d sees its sibling's terms", vw.n)
			}
		}
		if o1.Size() > vw.n {
			if got := o2.Apply(o1.Top(Term(vw.n)), o1.Child(Term(vw.n))); int(got) != vw.n {
				t.Fatalf("second overlay at %d: first handle %d", vw.n, got)
			}
		}
		o1.Reset(vw.v)
		if o1.Size() != vw.n {
			t.Fatalf("Reset left overlay at %d with Size %d", vw.n, o1.Size())
		}
	}
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(100); {
		case r < 90:
			a := app{symbols.FuncID(rng.Intn(5)), Term(rng.Intn(len(apps)))}
			before := u.Size()
			got := u.Apply(a.f, a.child)
			if int(got) == before {
				apps = append(apps, a)
			} else if apps[got] != a {
				t.Fatalf("Apply(%v) = %d, interned as %v", a, got, apps[got])
			}
			if u.Size() != len(apps) {
				t.Fatalf("Size %d after %d distinct terms", u.Size(), len(apps))
			}
		case r < 98:
			views = append(views, view{u.Freeze(), u.Size()})
		default:
			if len(views) > 0 {
				check(views[rng.Intn(len(views))])
			}
		}
	}
	for _, vw := range views {
		check(vw)
	}
}

// TestFrozenViewPanicsOnNewTerm: a frozen view shares its index with the
// writer, so interning through it must fail loudly, not write.
func TestFrozenViewPanicsOnNewTerm(t *testing.T) {
	_, u, a, b := setup()
	ta := u.Apply(a, Zero)
	v := u.Freeze()
	if v.Apply(a, Zero) != ta {
		t.Fatal("frozen view lost a(0)")
	}
	if !panics(func() { v.Apply(b, Zero) }) || !panics(func() { v.Number(3, a) }) {
		t.Fatal("frozen view interned a new term")
	}
	if !panics(func() { NewUniverseOver(u) }) {
		t.Fatal("overlay over a universe that may still grow")
	}
	if tb := u.Apply(b, Zero); int(tb) != v.Size() || u.Size() != v.Size()+1 {
		t.Fatalf("writer after the freeze: b(0) = %d, view Size %d", tb, v.Size())
	}
}

// TestFrozenReadersRaceWriter: readers work on successive frozen views, bare
// and through overlays, while the writer interns on across several growths of
// the index (run under -race). A reader checks its whole view: every term
// below its length resolves to itself, and what it interns through an overlay
// lands at the view's length.
func TestFrozenReadersRaceWriter(t *testing.T) {
	const terms, funcs, readers = 6000, 4, 4 // the index doubles at 4, 8, … 4096 entries
	u := NewUniverse()
	views := make(chan *Universe, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range views {
				o := NewUniverseOver(v)
				for id := 1; id < v.Size(); id++ {
					tm := Term(id)
					if got := v.Apply(v.Top(tm), v.Child(tm)); got != tm {
						t.Errorf("view of %d terms: term %d resolves to %d", v.Size(), id, got)
						return
					}
					if got := o.Apply(v.Top(tm), v.Child(tm)); got != tm {
						t.Errorf("overlay over %d terms: term %d resolves to %d", v.Size(), id, got)
						return
					}
				}
				// funcs is a symbol the writer never uses: new to every view.
				if got := o.Apply(funcs, Term(v.Size()-1)); int(got) != v.Size() {
					t.Errorf("overlay over %d terms: new term at %d", v.Size(), got)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	for u.Size() < terms {
		u.Apply(symbols.FuncID(rng.Intn(funcs)), Term(rng.Intn(u.Size())))
		if u.Size()%97 == 0 {
			views <- u.Freeze()
		}
	}
	close(views)
	wg.Wait()
}
