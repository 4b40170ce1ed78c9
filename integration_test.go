// Cross-representation integration tests: on randomized workloads, every
// representation of a least fixpoint — the graph specification, the
// equational/canonical form, the minimized automaton, the snapshot of the
// serialized document, and (where it is exact) depth-bounded bottom-up
// evaluation — must answer every membership question identically.
package funcdb_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"funcdb"
	"funcdb/internal/datagen"
	"funcdb/internal/facts"
	"funcdb/internal/fixpoint"
	"funcdb/internal/rewrite"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// answerers builds every representation of a program's fixpoint.
type answerers struct {
	db   *funcdb.Database
	spec *funcdb.GraphSpec
	form *funcdb.CanonicalForm
	min  *funcdb.Minimized
	// loaded is the snapshot of the exported document: the rules forgotten.
	loaded *funcdb.Snapshot
}

func buildAll(t *testing.T, src string) *answerers {
	t.Helper()
	db, err := funcdb.Open(src, funcdb.Options{})
	if err != nil {
		t.Fatalf("Open: %v\n%s", err, src)
	}
	spec, err := db.Graph()
	if err != nil {
		t.Fatalf("Graph: %v", err)
	}
	form := funcdb.BuildCanonical(spec)
	min, err := funcdb.Minimize(spec)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	var buf bytes.Buffer
	if err := db.Export(&buf); err != nil {
		t.Fatalf("Export: %v", err)
	}
	doc, err := funcdb.ReadSpec(&buf)
	if err != nil {
		t.Fatalf("ReadSpec: %v", err)
	}
	loaded, err := funcdb.LoadSpec(doc)
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	return &answerers{db: db, spec: spec, form: form, min: min, loaded: loaded}
}

// groundText spells pred(t, args) as a query, t by the names of its symbols,
// innermost first: a derived g'a'b is a pure symbol of that name to the
// program and to its document alike.
func groundText(pred string, syms, args []string) string {
	var b strings.Builder
	b.WriteString("?- " + pred + "(")
	for i := len(syms) - 1; i >= 0; i-- {
		b.WriteString(syms[i] + "(")
	}
	b.WriteString("0" + strings.Repeat(")", len(syms)))
	for _, c := range args {
		b.WriteString(", " + c)
	}
	b.WriteString(").")
	return b.String()
}

// checkAgreement walks every term to the given depth and compares all
// representations on every atom appearing anywhere in the primary database.
func checkAgreement(t *testing.T, a *answerers, depth int, label string) {
	t.Helper()
	ctx := context.Background()
	sp := a.spec
	w := sp.W
	tab := a.db.Tab()
	atoms := make(map[facts.AtomID]bool)
	for _, rep := range sp.Reps {
		for _, at := range sp.Slice(rep) {
			atoms[at] = true
		}
	}
	// Large alphabets would make a full walk to the target depth explode, so
	// cap the total number of visited terms.
	budget := 2000
	var walk func(tm term.Term, names []string)
	walk = func(tm term.Term, names []string) {
		if budget <= 0 {
			return
		}
		budget--
		for at := range atoms {
			pred := w.AtomPred(at)
			args := w.TupleArgs(w.AtomTuple(at))
			want, err := sp.Has(pred, tm, args)
			if err != nil {
				t.Fatalf("%s: spec.Has: %v", label, err)
			}
			if got := a.form.Has(pred, tm, args); got != want {
				t.Errorf("%s: canonical disagrees at %s", label, sp.U.CompactString(tm, tab))
			}
			if got, err := a.min.Has(pred, tm, args); err != nil || got != want {
				t.Errorf("%s: minimized disagrees at %s (err %v)", label, sp.U.CompactString(tm, tab), err)
			}
			strArgs := make([]string, len(args))
			for i, c := range args {
				strArgs[i] = tab.ConstName(c)
			}
			text := groundText(tab.PredName(pred), names, strArgs)
			for _, m := range []funcdb.Method{funcdb.MethodGraph, funcdb.MethodEquational} {
				if got, err := a.loaded.Ask(ctx, text, funcdb.WithMethod(m)); err != nil || got != want {
					t.Errorf("%s: the loaded document (method %d) disagrees on %s (err %v)", label, m, text, err)
				}
			}
		}
		if sp.U.Depth(tm) >= depth {
			return
		}
		for _, f := range sp.Alphabet {
			walk(sp.U.Apply(f, tm), append(names[:len(names):len(names)], tab.FuncName(f)))
		}
	}
	walk(term.Zero, nil)
}

func TestAllRepresentationsAgreeOnExamples(t *testing.T) {
	for name, src := range map[string]string{
		"calendar": datagen.CalendarSrc(3),
		"subsets":  datagen.SubsetsSrc(3),
		"robot":    datagen.RobotSrc(4),
		"chain":    datagen.ChainSrc(5),
	} {
		a := buildAll(t, src)
		checkAgreement(t, a, 5, name)
	}
}

func TestAllRepresentationsAgreeOnRandomAutomata(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		src := datagen.RandomAutomatonSrc(4, 2, seed)
		a := buildAll(t, src)
		checkAgreement(t, a, 5, fmt.Sprintf("automaton-seed-%d", seed))
	}
}

// TestAllRepresentationsAgreeOnRandomBidi stresses the engine's excursion
// summarization with rules flowing in both directions over two symbols.
func TestAllRepresentationsAgreeOnRandomBidi(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		src := datagen.RandomBidiSrc(3, 2, seed)
		a := buildAll(t, src)
		checkAgreement(t, a, 5, fmt.Sprintf("bidi-seed-%d", seed))
	}
}

// TestEngineContainsTruncatedFixpointBidi: soundness direction against the
// depth-bounded evaluator on bidirectional programs, where truncation is a
// lower bound on the true fixpoint.
func TestEngineContainsTruncatedFixpointBidi(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		prog := datagen.RandomBidi(3, 2, seed)
		prep, err := rewrite.Prepare(prog)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		db, err := funcdb.FromProgram(prog, funcdb.Options{})
		if err != nil {
			t.Fatalf("FromProgram: %v", err)
		}
		spec, err := db.Graph()
		if err != nil {
			t.Fatalf("Graph: %v", err)
		}
		u := term.NewUniverse()
		w := facts.NewWorld()
		ref, err := fixpoint.Eval(prep.Program, u, w, fixpoint.Options{MaxDepth: 7, MaxFacts: 200000})
		if err != nil {
			t.Fatalf("fixpoint: %v", err)
		}
		for _, p := range ref.Store.FnPreds() {
			if !prep.OriginalPreds[p] {
				continue
			}
			ref.Store.ForEachFn(p, func(tm term.Term, tu facts.TupleID) {
				tm2 := db.Universe().ApplyString(funcdb.Zero, u.Symbols(tm)...)
				got, err := spec.Has(p, tm2, w.TupleArgs(tu))
				if err != nil {
					t.Fatalf("Has: %v", err)
				}
				if !got {
					t.Errorf("seed %d: engine missing %s at %s",
						seed, prog.Tab.PredName(p), u.CompactString(tm, prog.Tab))
				}
			})
		}
	}
}

func TestAllRepresentationsAgreeOnRandomTemporal(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		src := datagen.RandomTemporalSrc(3, seed)
		a := buildAll(t, src)
		checkAgreement(t, a, 8, fmt.Sprintf("temporal-seed-%d", seed))
	}
}

// TestEngineContainsTruncatedFixpoint: the exact engine's model must
// contain everything a depth-bounded evaluation derives, even on random
// temporal programs with downward rules (where truncation is not exact in
// the other direction).
func TestEngineContainsTruncatedFixpoint(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		prog := datagen.RandomTemporal(4, seed)
		prep, err := rewrite.Prepare(prog)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		db, err := funcdb.FromProgram(prog, funcdb.Options{})
		if err != nil {
			t.Fatalf("FromProgram: %v", err)
		}
		spec, err := db.Graph()
		if err != nil {
			t.Fatalf("Graph: %v", err)
		}
		u := term.NewUniverse()
		w := facts.NewWorld()
		ref, err := fixpoint.Eval(prep.Program, u, w, fixpoint.Options{MaxDepth: 12, MaxFacts: 100000})
		if err != nil {
			t.Fatalf("fixpoint: %v", err)
		}
		tab := prog.Tab
		for _, p := range ref.Store.FnPreds() {
			if !prep.OriginalPreds[p] {
				continue
			}
			ref.Store.ForEachFn(p, func(tm term.Term, tu facts.TupleID) {
				// Re-intern tm in the db's universe via its symbols.
				syms := u.Symbols(tm)
				tm2 := db.Universe().ApplyString(funcdb.Zero, mapSyms(tab, db, u, syms)...)
				got, err := spec.Has(p, tm2, w.TupleArgs(tu))
				if err != nil {
					t.Fatalf("Has: %v", err)
				}
				if !got {
					t.Errorf("seed %d: engine missing %s at depth %d",
						seed, tab.PredName(p), u.Depth(tm))
				}
			})
		}
	}
}

// mapSyms translates symbol ids between universes sharing one table. The
// table is shared (FromProgram uses prog.Tab), so this is the identity, but
// keeping it explicit guards against future divergence.
func mapSyms(tab *symbols.Table, db *funcdb.Database, u *term.Universe, syms []symbols.FuncID) []symbols.FuncID {
	return syms
}

// TestUpOnlyTruncationIsExact: for upward-only random automata, truncated
// evaluation at depth D agrees exactly with the engine on all terms to D.
func TestUpOnlyTruncationIsExact(t *testing.T) {
	const depth = 6
	for seed := int64(20); seed < 32; seed++ {
		prog := datagen.RandomAutomaton(4, 2, seed)
		prep, err := rewrite.Prepare(prog)
		if err != nil {
			t.Fatalf("Prepare: %v", err)
		}
		db, err := funcdb.FromProgram(prog, funcdb.Options{})
		if err != nil {
			t.Fatalf("FromProgram: %v", err)
		}
		spec, err := db.Graph()
		if err != nil {
			t.Fatalf("Graph: %v", err)
		}
		u := term.NewUniverse()
		w := facts.NewWorld()
		ref, err := fixpoint.Eval(prep.Program, u, w, fixpoint.Options{MaxDepth: depth, Seminaive: true})
		if err != nil {
			t.Fatalf("fixpoint: %v", err)
		}
		var walk func(tm, refTm term.Term)
		walk = func(tm, refTm term.Term) {
			for p := symbols.PredID(0); int(p) < prog.Tab.NumPreds(); p++ {
				info := prog.Tab.PredInfo(p)
				if !info.Functional || !prep.OriginalPreds[p] {
					continue
				}
				want := ref.Store.HasFn(p, refTm, nil)
				got, err := spec.Has(p, tm, nil)
				if err != nil {
					t.Fatalf("Has: %v", err)
				}
				if got != want {
					t.Errorf("seed %d: %s at depth %d: engine %v, truncation %v",
						seed, info.Name, db.Universe().Depth(tm), got, want)
				}
			}
			if db.Universe().Depth(tm) >= depth {
				return
			}
			for _, f := range prep.Funcs {
				walk(db.Universe().Apply(f, tm), u.Apply(f, refTm))
			}
		}
		walk(funcdb.Zero, term.Zero)
	}
}

// TestLemma32Bound checks the cluster bound of Lemma 3.2 on programs small
// enough for the 2^gsize term to be finite: the measured number of
// representatives never exceeds 1 + m*c + m*2^gsize.
func TestLemma32Bound(t *testing.T) {
	sources := []string{
		"Even(0).\nEven(T) -> Even(T+2).\n",
		datagen.CalendarSrc(2),
		datagen.CalendarSrc(3),
		datagen.SubsetsSrc(2),
	}
	for _, src := range sources {
		db, err := funcdb.Open(src, funcdb.Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		st, err := db.Stats(context.Background())
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		bound := st.Params.CongruenceScopeBound()
		if math.IsInf(bound, 1) {
			t.Fatalf("bound overflowed for a small program: %s", st.Params)
		}
		if float64(st.Reps) > bound {
			t.Errorf("Lemma 3.2 violated: %d representatives > bound %.0f for\n%s",
				st.Reps, bound, src)
		}
	}
}

// TestMinimizationNeverGrows: property over random programs.
func TestMinimizationNeverGrows(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		db, err := funcdb.Open(datagen.RandomTemporalSrc(3, seed), funcdb.Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		spec, err := db.Graph()
		if err != nil {
			t.Fatalf("Graph: %v", err)
		}
		m, err := funcdb.Minimize(spec)
		if err != nil {
			t.Fatalf("Minimize: %v", err)
		}
		if m.NumStates() > len(spec.Reps) {
			t.Errorf("seed %d: minimization grew the automaton: %d > %d",
				seed, m.NumStates(), len(spec.Reps))
		}
	}
}
