package specgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoSecondTable keeps the successor table from growing a second
// encoding: in the packages that read T — this one, internal/query,
// internal/minimize and internal/core — no non-test file declares a map
// keyed on term.Term, or on a struct or array holding one. A representative
// is an index into Table; whoever needs one for a term walks the term
// (Table.Walk). Packages that key on terms for reasons of their own
// (congruence, engine, fixpoint, normform, specio.Standalone) are not looked
// at.
func TestNoSecondTable(t *testing.T) {
	files := 0
	for _, pkg := range []string{"specgraph", "query", "minimize", "core"} {
		paths, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var parsed []*ast.File
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			parsed = append(parsed, f)
		}
		files += len(parsed)
		for _, pos := range termKeyedMaps(parsed) {
			p := fset.Position(pos)
			t.Errorf("internal/%s/%s:%d: a map keyed on terms; index the specification's Table instead", pkg, filepath.Base(p.Filename), p.Line)
		}
	}
	if files < 15 {
		t.Fatalf("parsed only %d files: the guard is not looking at the four packages", files)
	}
}

// termKeyedMaps returns the position of every map type in the files of one
// package whose key is term.Term or contains one: an array of them, a struct
// with such a field, or a type of the package declared as either.
func termKeyedMaps(files []*ast.File) []token.Pos {
	decls := map[string]ast.Expr{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				decls[ts.Name.Name] = ts.Type
			}
			return true
		})
	}
	var holdsTerm func(e ast.Expr, depth int) bool
	holdsTerm = func(e ast.Expr, depth int) bool {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			x, ok := e.X.(*ast.Ident)
			return ok && x.Name == "term" && e.Sel.Name == "Term"
		case *ast.ArrayType:
			return holdsTerm(e.Elt, depth)
		case *ast.StructType:
			for _, fld := range e.Fields.List {
				if holdsTerm(fld.Type, depth) {
					return true
				}
			}
		case *ast.Ident:
			if d, ok := decls[e.Name]; ok && depth < 8 {
				return holdsTerm(d, depth+1)
			}
		}
		return false
	}
	var out []token.Pos
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if m, ok := n.(*ast.MapType); ok && holdsTerm(m.Key, 0) {
				out = append(out, m.Pos())
			}
			return true
		})
	}
	return out
}

// TestNoSecondTableCatches: the scan sees each way of keying a map on a term,
// and leaves alone maps that merely hold terms as values.
func TestNoSecondTableCatches(t *testing.T) {
	src := `package p

type edgeKey struct {
	from term.Term
	fn   symbols.FuncID
}

type pair [2]term.Term

type spec struct {
	succ   map[edgeKey]term.Term
	state  map[term.Term]facts.StateID
	seen   map[pair]bool
	inline map[struct{ t term.Term }]int
	cands  map[facts.AtomID][]term.Term
	byID   map[facts.StateID]int32
}

func f(reps []term.Term) {
	index := make(map[term.Term]int32, len(reps))
	_ = index
}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(termKeyedMaps([]*ast.File{f})); got != 5 {
		t.Errorf("the scan found %d term-keyed maps in the planted file, want 5 (succ, state, seen, inline, index)", got)
	}
}
