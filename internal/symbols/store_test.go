package symbols

import (
	"fmt"
	"math/rand"
	"testing"
)

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// names is what a root table was asked to intern, by identifier.
type names struct {
	preds  []PredInfo
	funcs  []FuncInfo
	consts []string
	vars   []string
}

func (r *names) lens() [4]int {
	return [4]int{len(r.preds), len(r.funcs), len(r.consts), len(r.vars)}
}

func lens(t *Table) [4]int { return [4]int{t.NumPreds(), t.NumFuncs(), t.NumConsts(), t.NumVars()} }

// intern interns symbol id of kind k (0 predicate, 1 function symbol, 2
// constant, 3 variable) into t.
func (r *names) intern(t *Table, k, id int) int {
	switch k {
	case 0:
		return int(t.Pred(r.preds[id].Name, r.preds[id].Arity, r.preds[id].Functional))
	case 1:
		return int(t.Func(r.funcs[id].Name, r.funcs[id].DataArity))
	case 2:
		return int(t.Const(r.consts[id]))
	}
	return int(t.Var(r.vars[id]))
}

// name reads symbol id of kind k back through t.
func name(t *Table, k, id int) string {
	switch k {
	case 0:
		info := t.PredInfo(PredID(id))
		return fmt.Sprintf("%s/%d/%v", info.Name, info.Arity, info.Functional)
	case 1:
		return fmt.Sprintf("%s/%d", t.FuncName(FuncID(id)), t.FuncInfo(FuncID(id)).DataArity)
	case 2:
		return t.ConstName(ConstID(id))
	}
	return t.VarName(VarID(id))
}

// checkView holds a view taken when the root had the lengths n against the
// root's symbols since: it resolves exactly its prefix and panics on the
// rest; an overlay over it resolves the prefix without growing, numbers what
// is new from the view's lengths on, keeps it from a sibling overlay and
// forgets it on Reset; a Clone of the overlay holds both under the same
// identifiers and can grow.
func (r *names) checkView(t *testing.T, root, v *Table, n [4]int) {
	t.Helper()
	if lens(v) != n {
		t.Fatalf("view taken at %v has lengths %v", n, lens(v))
	}
	o1, o2 := NewTableOver(v), NewTableOver(v)
	for k, total := range r.lens() {
		for id := 0; id < total; id++ {
			if id < n[k] {
				if got := r.intern(v, k, id); got != id {
					t.Fatalf("view at %v: kind %d symbol %d resolves to %d", n, k, id, got)
				}
				if got := r.intern(o1, k, id); got != id || lens(o1)[k] != n[k] {
					t.Fatalf("overlay at %v: kind %d base symbol %d resolves to %d", n, k, id, got)
				}
				continue
			}
			if !panics(func() { r.intern(v, k, id) }) || lens(v) != n {
				t.Fatalf("view at %v interned kind %d symbol %d of the root's future", n, k, id)
			}
			if got := r.intern(o1, k, id); got != id || r.intern(o1, k, id) != id {
				// Every symbol of the root's future is interned, in order, so
				// the overlay's identifiers come out as the root's.
				t.Fatalf("overlay at %v: future kind %d symbol %d got %d", n, k, id, got)
			}
			if lens(o2)[k] != n[k] {
				t.Fatalf("overlay at %v sees its sibling's symbols", n)
			}
		}
		if total > n[k] {
			if got := r.intern(o2, k, total-1); got != n[k] {
				t.Fatalf("second overlay at %v: first kind %d identifier %d", n, k, got)
			}
		}
	}
	if o1.HasLocal() != (lens(root) != n) {
		t.Fatalf("overlay at %v: HasLocal = %v", n, o1.HasLocal())
	}
	c := o1.Clone()
	for k, total := range r.lens() {
		for id := 0; id < total; id++ {
			if name(c, k, id) != name(root, k, id) || name(o1, k, id) != name(root, k, id) || r.intern(c, k, id) != id {
				t.Fatalf("clone of overlay at %v: kind %d symbol %d is %s, the root's %s", n, k, id, name(c, k, id), name(root, k, id))
			}
		}
	}
	if got := c.Const("a constant of the clone's own"); int(got) != len(r.consts) || lens(o1) != r.lens() {
		t.Fatalf("clone of overlay at %v: new constant %d, overlay lengths %v", n, got, lens(o1))
	}
	o1.Reset(v)
	if lens(o1) != n || o1.HasLocal() {
		t.Fatalf("Reset left overlay at %v with lengths %v", n, lens(o1))
	}
}

// TestStoreInterleavings drives one root table through random interns and
// freezes and checks every view taken on the way (checkView): identifiers are
// dense in insertion order and no view ever sees the root's future.
func TestStoreInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := NewTable()
	r := &names{}
	type view struct {
		v *Table
		n [4]int
	}
	var views []view
	for step := 0; step < 1200; step++ {
		switch p := rng.Intn(100); {
		case p < 90:
			before := lens(tab)
			k, nm := rng.Intn(4), fmt.Sprintf("n%d", rng.Intn(60))
			var got int
			switch k {
			case 0:
				info := PredInfo{nm, rng.Intn(3), rng.Intn(2) == 0}
				if got = int(tab.Pred(info.Name, info.Arity, info.Functional)); got == before[0] {
					r.preds = append(r.preds, info)
				}
			case 1:
				info := FuncInfo{Name: nm, DataArity: rng.Intn(3)}
				if got = int(tab.Func(info.Name, info.DataArity)); got == before[1] {
					r.funcs = append(r.funcs, info)
				}
			case 2:
				if got = int(tab.Const(nm)); got == before[2] {
					r.consts = append(r.consts, nm)
				}
			case 3:
				if got = int(tab.Var(nm)); got == before[3] {
					r.vars = append(r.vars, nm)
				}
			}
			if got > before[k] || lens(tab) != r.lens() {
				t.Fatalf("kind %d: identifier %d with %d interned; lengths %v, recorded %v", k, got, before[k], lens(tab), r.lens())
			}
		case p < 98:
			views = append(views, view{tab.Freeze(), lens(tab)})
		default:
			if len(views) > 0 {
				vw := views[rng.Intn(len(views))]
				r.checkView(t, tab, vw.v, vw.n)
			}
		}
	}
	for _, vw := range views {
		r.checkView(t, tab, vw.v, vw.n)
	}
}

// TestFrozenViewPanicsOnNewSymbol: a frozen view shares its indexes with the
// writer, so interning through it must fail loudly, not write.
func TestFrozenViewPanicsOnNewSymbol(t *testing.T) {
	tab := NewTable()
	p, f, c, x := tab.Pred("P", 1, true), tab.Func("f", 0), tab.Const("a"), tab.Var("X")
	v := tab.Freeze()
	if v.Pred("P", 1, true) != p || v.Func("f", 0) != f || v.DerivedFunc("f") != f || v.Const("a") != c || v.Var("X") != x {
		t.Fatal("frozen view lost a symbol")
	}
	for what, intern := range map[string]func(){
		"predicate": func() { v.Pred("P", 2, true) },
		"function":  func() { v.Func("f", 1) },
		"derived":   func() { v.DerivedFunc("f'a") },
		"constant":  func() { v.Const("b") },
		"variable":  func() { v.Var("Y") },
		"fresh":     func() { v.FreshVar("V") },
	} {
		if !panics(intern) {
			t.Errorf("frozen view took a new %s", what)
		}
	}
	if !panics(func() { NewTableOver(tab) }) {
		t.Error("overlay over a table that may still grow")
	}
	// The writer goes on past the view; a mark on a shared record stays.
	g := tab.DerivedFunc("f'a")
	if tab.DerivedFunc("f") != f || tab.FuncInfo(f).Derived || !tab.FuncInfo(g).Derived || int(g) != v.NumFuncs() {
		t.Error("DerivedFunc after a freeze: marks or identifiers wrong")
	}
}
