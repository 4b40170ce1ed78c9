package normform

import (
	"testing"

	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

func compileSrc(t *testing.T, src string) (node, global []Rule, grounds []term.Term, push map[symbols.FuncID]bool) {
	t.Helper()
	prog := parser.MustParse(src).Program
	prep, err := rewrite.Prepare(prog)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	u := term.NewUniverse()
	c, err := Compile(prep, u)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c.Node, c.Global, c.GroundTerms, c.PushFns
}

func TestCompileClassifiesLevels(t *testing.T) {
	node, global, grounds, push := compileSrc(t, `
Holds(2).
Holds(T) -> Holds(T+1).
Holds(2), Holds(T) -> Seen(T).
Edge(a, b).
Edge(X, Y) -> Path(X, Y).
`)
	if len(global) != 1 {
		t.Fatalf("global rules = %d, want 1 (Edge -> Path)", len(global))
	}
	if len(node) != 2 {
		t.Fatalf("node rules = %d, want 2", len(node))
	}
	// Holds(T) -> Holds(T+1): body Self, head Child.
	r0 := node[0]
	if r0.Body[0].Lvl != Self || r0.Head.Lvl != Child {
		t.Errorf("rule 0 levels: body %v head %v", r0.Body[0].Lvl, r0.Head.Lvl)
	}
	// Holds(2), Holds(T) -> Seen(T): body Ground+Self, head Self.
	r1 := node[1]
	if r1.Body[0].Lvl != Ground || r1.Body[1].Lvl != Self || r1.Head.Lvl != Self {
		t.Errorf("rule 1 levels: %v %v head %v", r1.Body[0].Lvl, r1.Body[1].Lvl, r1.Head.Lvl)
	}
	// Ground terms: the fact term 2 and the rule's ground atom term 2 are
	// the same; compile reports rule grounds only (facts are loaded by New).
	if len(grounds) != 1 {
		t.Errorf("rule ground terms = %d, want 1", len(grounds))
	}
	if len(push) != 1 {
		t.Errorf("push symbols = %d, want 1 (succ)", len(push))
	}
}

func TestCompileDownAndSiblingRules(t *testing.T) {
	node, _, _, push := compileSrc(t, `
@functional A/1.
@functional B/1.
@functional C/1.
A(0).
A(f(S)) -> B(S).
A(f(S)), A(g(S)) -> C(S).
A(S) -> A(f(S)).
A(S) -> A(g(S)).
`)
	if len(node) != 4 {
		t.Fatalf("node rules = %d, want 4", len(node))
	}
	// Down rule: body Child(f), head Self.
	if node[0].Body[0].Lvl != Child || node[0].Head.Lvl != Self {
		t.Errorf("down rule misclassified")
	}
	// Sibling rule: two Child literals with different symbols.
	if node[1].Body[0].Lvl != Child || node[1].Body[1].Lvl != Child ||
		node[1].Body[0].Fn == node[1].Body[1].Fn {
		t.Errorf("sibling rule misclassified")
	}
	// Push symbols: f and g (heads at Child).
	if len(push) != 2 {
		t.Errorf("push symbols = %d, want 2", len(push))
	}
}

func TestCompileRejectsNonNormalInput(t *testing.T) {
	// Bypass Prepare to feed a non-normal rule directly.
	prog := parser.MustParse(`
@functional P/1.
P(0).
P(S) -> P(f(S)).
`).Program
	prep, err := rewrite.Prepare(prog)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	// Corrupt a rule to depth 2 after preparation.
	deep := prep.Program.Rules[0].Clone()
	deep.Head.FT = deep.Head.FT.Apply(prog.Tab.Func("f", 0))
	prep.Program.Rules = append(prep.Program.Rules, deep)
	if _, err := Compile(prep, term.NewUniverse()); err == nil {
		t.Fatalf("non-normal rule accepted by compile")
	}
}

// TestCompilePlansJoins: the body comes out in join order — most positions
// fixed first, ties textual — with each position a constant test, a register
// test or the one write of its register, and the head reads registers only.
func TestCompilePlansJoins(t *testing.T) {
	node, _, _, _ := compileSrc(t, `
K(a). L(b).
A(0).
A(S) -> M(f(S), a, b).
K(X), L(Y), M(S, X, Y) -> N(S, Y, X).
M(S, X, X) -> D(S, X).
M(S, a, X), K(X) -> H(S, X).
`)
	// K(X), L(Y), M(S, X, Y): K binds X; M then has one position fixed and L
	// none, so M goes second and binds Y; L is left as a test.
	r := &node[1]
	if r.Body[0].Lvl != Data || r.Body[1].Lvl != Self || r.Body[2].Lvl != Data {
		t.Fatalf("join order levels = %v %v %v, want Data, Self, Data", r.Body[0].Lvl, r.Body[1].Lvl, r.Body[2].Lvl)
	}
	wantPlans := [][]Arg{
		{{Reg: 0, Bind: true}},
		{{Reg: 0}, {Reg: 1, Bind: true}},
		{{Reg: 1}},
	}
	for i, want := range wantPlans {
		got := r.Body[i].Plan
		if len(got) != len(want) {
			t.Fatalf("literal %d: plan %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("literal %d position %d: %+v, want %+v", i, k, got[k], want[k])
			}
		}
	}
	if h := r.Head.Plan; len(h) != 2 || h[0] != (Arg{Reg: 1}) || h[1] != (Arg{Reg: 0}) || r.Regs != 2 {
		t.Errorf("head plan %v over %d registers, want [reg 1, reg 0] over 2", h, r.Regs)
	}
	// M(S, X, X): the second X compares.
	if p := node[2].Body[0].Plan; p[0] != (Arg{Reg: 0, Bind: true}) || p[1] != (Arg{Reg: 0}) {
		t.Errorf("repeated variable plan %v", p)
	}
	// M(S, a, X), K(X): one constant fixed beats none; K(X) becomes a test.
	r = &node[3]
	if r.Body[0].Lvl != Self || r.Body[0].Plan[0].Reg != -1 || r.Body[1].Plan[0] != (Arg{Reg: 0}) {
		t.Errorf("constant plan: %v then %v", r.Body[0].Plan, r.Body[1].Plan)
	}
}
