package term

import (
	"math/rand"
	"testing"
	"testing/quick"

	"funcdb/internal/symbols"
)

func setup() (*symbols.Table, *Universe, symbols.FuncID, symbols.FuncID) {
	tab := symbols.NewTable()
	a := tab.Func("a", 0)
	b := tab.Func("b", 0)
	return tab, NewUniverse(), a, b
}

func TestApplyInterning(t *testing.T) {
	_, u, a, b := setup()
	t1 := u.Apply(a, Zero)
	t2 := u.Apply(a, Zero)
	if t1 != t2 {
		t.Fatalf("a(0) interned twice: %v vs %v", t1, t2)
	}
	t3 := u.Apply(b, Zero)
	if t3 == t1 {
		t.Fatalf("a(0) and b(0) share a handle")
	}
	t4 := u.Apply(b, t1)
	if u.Top(t4) != b || u.Child(t4) != t1 {
		t.Fatalf("Top/Child broken: top=%v child=%v", u.Top(t4), u.Child(t4))
	}
	if u.Depth(Zero) != 0 || u.Depth(t1) != 1 || u.Depth(t4) != 2 {
		t.Fatalf("depths: %d %d %d", u.Depth(Zero), u.Depth(t1), u.Depth(t4))
	}
}

func TestSymbolsRoundTrip(t *testing.T) {
	_, u, a, b := setup()
	want := []symbols.FuncID{a, b, b, a}
	tm := u.ApplyString(Zero, want...)
	got := u.Symbols(tm)
	if len(got) != len(want) {
		t.Fatalf("Symbols length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Symbols[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if u.ApplyString(Zero, got...) != tm {
		t.Fatalf("ApplyString(Symbols(t)) != t")
	}
}

func TestSubterms(t *testing.T) {
	_, u, a, b := setup()
	tm := u.ApplyString(Zero, a, b)
	subs := u.Subterms(tm)
	if len(subs) != 3 {
		t.Fatalf("len(Subterms) = %d, want 3", len(subs))
	}
	if subs[0] != Zero || subs[1] != u.Apply(a, Zero) || subs[2] != tm {
		t.Fatalf("Subterms = %v", subs)
	}
}

// TestPrecedenceOrdering checks the breadth-first ordering of section 3.4:
// with two symbols a, b the order is 0, a, b, aa, ab, ba, bb, aba, abb.
// (Here the compact string lists symbols innermost-first: "ab" is b(a(0)).)
func TestPrecedenceOrdering(t *testing.T) {
	tab, u, a, b := setup()
	seq := [][]symbols.FuncID{
		{},
		{a}, {b},
		{a, a}, {a, b}, {b, a}, {b, b},
		{a, b, a}, {a, b, b},
	}
	terms := make([]Term, len(seq))
	for i, s := range seq {
		terms[i] = u.ApplyString(Zero, s...)
	}
	for i := 0; i < len(terms); i++ {
		for j := 0; j < len(terms); j++ {
			got := u.Compare(terms[i], terms[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// Terms of equal depth but different strings are ordered
			// lexicographically; aba and abb come after all depth-2 terms.
			if i != j && u.Depth(terms[i]) == u.Depth(terms[j]) {
				// lexicographic within a depth level is exactly the list order
			}
			if got != want {
				t.Errorf("Compare(%s, %s) = %d, want %d",
					u.CompactString(terms[i], tab), u.CompactString(terms[j], tab), got, want)
			}
		}
	}
}

func TestCompactString(t *testing.T) {
	tab, u, a, b := setup()
	if got := u.CompactString(Zero, tab); got != "0" {
		t.Fatalf("CompactString(0) = %q", got)
	}
	tm := u.ApplyString(Zero, a, b) // b(a(0)), compactly "ab"
	if got := u.CompactString(tm, tab); got != "ab" {
		t.Fatalf("CompactString = %q, want ab", got)
	}
	extA := tab.Func("ext_a", 0)
	tm2 := u.Apply(extA, Zero)
	if got := u.CompactString(tm2, tab); got != "ext_a" {
		t.Fatalf("CompactString long = %q", got)
	}
	// Only a string of succ alone is a numeral.
	succ := tab.Func(SuccName, 0)
	for _, c := range []struct {
		syms []symbols.FuncID
		want string
	}{
		{[]symbols.FuncID{succ, succ, succ}, "3"},
		{[]symbols.FuncID{succ, succ, a}, "succ.succ.a"},
		{[]symbols.FuncID{a, succ}, "a.succ"},
	} {
		if got := u.CompactString(u.ApplyString(Zero, c.syms...), tab); got != c.want {
			t.Errorf("CompactString(%v) = %q, want %q", c.syms, got, c.want)
		}
		if got := string(AppendCompact([]byte("x"), c.syms, tab)); got != "x"+c.want {
			t.Errorf("AppendCompact(%v) = %q, want %q", c.syms, got, "x"+c.want)
		}
	}
}

func TestStringFunctionalNotation(t *testing.T) {
	tab, u, a, b := setup()
	tm := u.ApplyString(Zero, a, b)
	if got := u.String(tm, tab); got != "b(a(0))" {
		t.Fatalf("String = %q, want b(a(0))", got)
	}
}

func TestNumberSugar(t *testing.T) {
	tab := symbols.NewTable()
	succ := tab.Func(SuccName, 0)
	u := NewUniverse()
	five := u.Number(5, succ)
	if u.Depth(five) != 5 {
		t.Fatalf("Depth(5) = %d", u.Depth(five))
	}
	if n, ok := u.AsNumber(five, succ); !ok || n != 5 {
		t.Fatalf("AsNumber = %d, %v", n, ok)
	}
	if got := u.String(five, tab); got != "5" {
		t.Fatalf("String(succ^5(0)) = %q, want 5", got)
	}
	// A mixed chain is not a number.
	other := tab.Func("f", 0)
	tm := u.Apply(other, five)
	if _, ok := u.AsNumber(tm, succ); ok {
		t.Fatalf("AsNumber accepted non-succ chain")
	}
	if got := u.String(tm, tab); got != "f(5)" {
		// The inner succ-chain still prints as a number.
		t.Fatalf("String = %q, want f(5)", got)
	}
}

// TestInterningBijection property-checks that distinct symbol strings intern
// to distinct handles and equal strings to equal handles.
func TestInterningBijection(t *testing.T) {
	_, u, a, b := setup()
	alphabet := []symbols.FuncID{a, b}
	toTerm := func(bits uint16, n uint8) Term {
		k := int(n % 12)
		tm := Zero
		for i := 0; i < k; i++ {
			tm = u.Apply(alphabet[(bits>>i)&1], tm)
		}
		return tm
	}
	f := func(bits1 uint16, n1 uint8, bits2 uint16, n2 uint8) bool {
		t1 := toTerm(bits1, n1)
		t2 := toTerm(bits2, n2)
		s1 := u.Symbols(t1)
		s2 := u.Symbols(t2)
		same := len(s1) == len(s2)
		if same {
			for i := range s1 {
				if s1[i] != s2[i] {
					same = false
					break
				}
			}
		}
		return same == (t1 == t2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCompareIsStrictOrder property-checks antisymmetry and transitivity of
// the precedence ordering on random terms.
func TestCompareIsStrictOrder(t *testing.T) {
	_, u, a, b := setup()
	alphabet := []symbols.FuncID{a, b}
	rng := rand.New(rand.NewSource(1))
	randTerm := func() Term {
		k := rng.Intn(6)
		tm := Zero
		for i := 0; i < k; i++ {
			tm = u.Apply(alphabet[rng.Intn(2)], tm)
		}
		return tm
	}
	for i := 0; i < 500; i++ {
		x, y, z := randTerm(), randTerm(), randTerm()
		if u.Compare(x, y) != -u.Compare(y, x) {
			t.Fatalf("Compare not antisymmetric")
		}
		if u.Compare(x, x) != 0 {
			t.Fatalf("Compare(x,x) != 0")
		}
		if u.Compare(x, y) <= 0 && u.Compare(y, z) <= 0 && u.Compare(x, z) > 0 {
			t.Fatalf("Compare not transitive")
		}
		if (u.Compare(x, y) == 0) != (x == y) {
			t.Fatalf("Compare(x,y)==0 must coincide with x==y under interning")
		}
	}
}
