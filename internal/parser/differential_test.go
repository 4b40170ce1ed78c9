package parser_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"funcdb/internal/ast"
	"funcdb/internal/canonical"
	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/subst"
	"funcdb/internal/symbols"
)

// The differential test of the linear-time term builder: everything the
// parser accepts must come out exactly as the recursive Apply-based
// construction it replaced (export_test.go) built it — same AST, same
// canonical shape — and every ground query must get the verdict the old
// lowering (EliminateMixed on the atom, then the map-based walk) gives that
// AST.

// family is one program of the differential test with the queries asked of it.
type family struct {
	name, src string
	queries   []string
}

// testDepths straddle the sizes where slices regrow and reach the deepest
// term the benchmark sends.
var testDepths = []int{0, 1, 2, 63, 64, 65, 1023}

func pureQuery(pred string, syms, depth int, rng *rand.Rand) string {
	var b strings.Builder
	fmt.Fprintf(&b, "?- %s(", pred)
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "f%d(", rng.Intn(syms))
	}
	b.WriteString("0" + strings.Repeat(")", depth) + ").")
	return b.String()
}

func families(t *testing.T) []family {
	fams := []family{
		{name: "calendar", src: datagen.CalendarSrc(6)},
		{name: "chain", src: datagen.ChainSrc(5)},
		{name: "subsets", src: datagen.SubsetsSrc(3)},
		{name: "robot", src: datagen.RobotSrc(3)},
		{name: "random_automaton", src: datagen.RandomAutomatonSrc(5, 3, 42)},
		{name: "random_bidi", src: datagen.RandomBidiSrc(3, 2, 7)},
	}
	rng := rand.New(rand.NewSource(1))
	for _, d := range testDepths {
		seed := int64(d)
		// Temporal forms: a literal N, N split over +n sugar, T+n.
		fams[0].queries = append(fams[0].queries,
			datagen.DeepQuery("cal", 6, d, seed),
			fmt.Sprintf("?- Meets(%d+%d, s%d).", d/2, d-d/2, d%6),
			fmt.Sprintf("?- Meets(T+%d, X).", d))
		fams[1].queries = append(fams[1].queries,
			fmt.Sprintf("?- Holds(%d).", d), fmt.Sprintf("?- Holds(0+%d+0).", d))
		// Mixed forms: ext(S, e) and move(S, p, q).
		fams[2].queries = append(fams[2].queries, datagen.DeepQuery("sub", 3, d, seed), datagen.DeepQuery("sub", 3, d, seed+1))
		fams[3].queries = append(fams[3].queries, datagen.DeepQuery("rob", 3, d, seed), datagen.DeepQuery("rob", 3, d, seed+1))
		// Pure forms.
		fams[4].queries = append(fams[4].queries, pureQuery("Q0", 3, d, rng), pureQuery("Q3", 3, d, rng))
		fams[5].queries = append(fams[5].queries, pureQuery("Q0", 2, d, rng), pureQuery("Q1", 2, d, rng))
	}
	// A novel constant, a novel function symbol and a conjunction.
	fams[2].queries = append(fams[2].queries,
		"?- Member(ext(ext(0, e0), nobody), e0).", "?- Member(cons(ext(0, e0), e1), e0).",
		"?- Member(ext(0, e1), e1), P(e1), Member(ext(ext(0, e1), e2), e2).")

	// The acceptance corpus: each program with its "%! true|false ?- Q." queries.
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.fdb"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f := family{name: filepath.Base(path), src: string(raw)}
		for _, line := range strings.Split(f.src, "\n") {
			if _, q, ok := strings.Cut(line, "?-"); ok && strings.HasPrefix(strings.TrimSpace(line), "%!") {
				f.queries = append(f.queries, "?-"+q)
			}
		}
		fams = append(fams, f)
	}
	return fams
}

func TestProgramsMatchRecursiveReference(t *testing.T) {
	for _, f := range families(t) {
		got, err := parser.Parse(f.src)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		restore := parser.UseReferenceBuilder()
		ref, err := parser.Parse(f.src)
		restore()
		if err != nil {
			t.Fatalf("%s: reference: %v", f.name, err)
		}
		if !reflect.DeepEqual(got.Program.Facts, ref.Program.Facts) || !reflect.DeepEqual(got.Program.Rules, ref.Program.Rules) ||
			!reflect.DeepEqual(got.Queries, ref.Queries) || got.Program.Format() != ref.Program.Format() {
			t.Errorf("%s: program differs from the reference construction", f.name)
		}
	}
}

// refVerdict decides a ground query the way core did before plans resolved
// derived symbols by name: mixed symbols eliminated by the rewrite on a
// one-fact program, the term interned, the live specification walked.
func refVerdict(db *core.Database, q *ast.Query) (bool, error) {
	sp, err := db.Graph()
	if err != nil {
		return false, err
	}
	for i := range q.Atoms {
		a := &q.Atoms[i]
		args := make([]symbols.ConstID, len(a.Args))
		for j, d := range a.Args {
			args[j] = d.Const
		}
		if a.FT == nil {
			if !sp.HasData(a.Pred, args) {
				return false, nil
			}
			continue
		}
		pure, err := rewrite.EliminateMixed(&ast.Program{Tab: db.Tab(), Facts: []ast.Atom{*a}})
		if err != nil {
			return false, err
		}
		tm, ok := subst.GroundFTerm(db.Universe(), pure.Facts[0].FT)
		if !ok {
			return false, fmt.Errorf("not ground")
		}
		// Under range restriction the least fixpoint holds no atom over a
		// term with a symbol outside the alphabet: such an atom is false.
		if _, _, in := sp.Walk(db.Universe().Symbols(tm)); !in {
			return false, nil
		}
		if has, err := sp.Has(a.Pred, tm, args); err != nil || !has {
			return false, err
		}
	}
	return true, nil
}

func TestQueriesMatchRecursiveReference(t *testing.T) {
	ctx := context.Background()
	for _, f := range families(t) {
		// Two databases over the same source: their symbol tables grow in
		// step as the same texts are parsed into each, so the ASTs must
		// agree identifier for identifier.
		dbGot, err := core.Open(f.src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		dbRef, err := core.Open(f.src, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The old lowering interns derived symbols into the live table, so
		// the reference verdicts get a database of their own.
		dbOld, err := core.Open(f.src, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := dbGot.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range f.queries {
			label := fmt.Sprintf("%s: %.60s", f.name, text)
			got, err := dbGot.ParseQuery(text)
			restore := parser.UseReferenceBuilder()
			ref, refErr := dbRef.ParseQuery(text)
			old, oldErr := dbOld.ParseQuery(text)
			restore()
			if err != nil || refErr != nil || oldErr != nil {
				t.Fatalf("%s: parse: %v / reference: %v, %v", label, err, refErr, oldErr)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: AST differs from the reference construction", label)
				continue
			}
			if g, r := canonical.QueryShape(got, dbGot.Tab()), canonical.QueryShape(ref, dbRef.Tab()); g != r {
				t.Errorf("%s: shape %.80q, reference %.80q", label, g, r)
			}
			ground := true
			for i := range ref.Atoms {
				ground = ground && ref.Atoms[i].IsGround()
			}
			if !ground {
				continue
			}
			ans, askErr := snap.Ask(ctx, text)
			want, wantErr := refVerdict(dbOld, old)
			if ans != want || (askErr != nil) != (wantErr != nil) {
				t.Errorf("%s: Ask = %v, %v; reference verdict %v, %v", label, ans, askErr, want, wantErr)
			}
			if askErr != nil {
				continue
			}
			// The equational method lowers through the same symbol resolution.
			if eq, err := snap.Ask(ctx, text, core.WithMethod(core.MethodEquational)); err != nil || eq != want {
				t.Errorf("%s: equational Ask = %v, %v; reference verdict %v", label, eq, err, want)
			}
		}
	}
}
