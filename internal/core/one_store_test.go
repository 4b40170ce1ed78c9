package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneStore keeps the stores at one representation each: in
// internal/term, internal/facts, internal/symbols and this package no
// non-test file declares a type named Scratch (an overlay is the store's own
// type over a frozen view of it), and no function named Freeze or FreezeSet
// ranges over a map (a frozen view is a length; an interning index that has
// to be copied entry by entry makes every publish cost the whole history).
func TestOneStore(t *testing.T) {
	files := 0
	for _, pkg := range []string{"term", "facts", "symbols", "core"} {
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
		for _, v := range secondStores(parsed) {
			p := fset.Position(v.pos)
			t.Errorf("internal/%s/%s:%d: %s", pkg, filepath.Base(p.Filename), p.Line, v.what)
		}
	}
	if files < 12 {
		t.Fatalf("parsed only %d files: the guard is not looking at the four packages", files)
	}
}

type violation struct {
	pos  token.Pos
	what string
}

// secondStores returns, for the files of one package, every declaration of a
// type named Scratch and every range statement inside a function named Freeze
// or FreezeSet over something the files show to be a map: a struct field of
// the package declared with a map type, or a variable the function makes one.
func secondStores(files []*ast.File) []violation {
	mapFields := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					if _, isMap := fld.Type.(*ast.MapType); isMap {
						for _, name := range fld.Names {
							mapFields[name.Name] = true
						}
					}
				}
			}
			return true
		})
	}
	isMapExpr := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.CompositeLit:
			_, ok := e.Type.(*ast.MapType)
			return ok
		case *ast.CallExpr:
			if fn, ok := e.Fun.(*ast.Ident); ok && fn.Name == "make" && len(e.Args) > 0 {
				_, ok := e.Args[0].(*ast.MapType)
				return ok
			}
		}
		return false
	}
	var out []violation
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name == "Scratch" {
						out = append(out, violation{ts.Pos(), "a type named Scratch; make the overlay the store's own type over a frozen view"})
					}
				}
			case *ast.FuncDecl:
				if (d.Name.Name != "Freeze" && d.Name.Name != "FreezeSet") || d.Body == nil {
					continue
				}
				mapVars := map[string]bool{}
				ast.Inspect(d.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for i, rhs := range n.Rhs {
							if id, ok := n.Lhs[i].(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) && isMapExpr(rhs) {
								mapVars[id.Name] = true
							}
						}
					case *ast.RangeStmt:
						over := false
						switch x := n.X.(type) {
						case *ast.SelectorExpr:
							over = mapFields[x.Sel.Name]
						case *ast.Ident:
							over = mapVars[x.Name]
						}
						if over {
							out = append(out, violation{n.Pos(), d.Name.Name + " ranges over a map; a frozen view shares the index and takes a length"})
						}
					}
					return true
				})
			}
		}
	}
	return out
}

// TestOneStoreCatches: the scan sees a Scratch type and both ways a freeze
// can copy a map, and leaves alone a freeze that cuts slices and a map copied
// elsewhere.
func TestOneStoreCatches(t *testing.T) {
	src := `package p

type Store struct {
	recs  []rec
	byKey map[key]int32
	lists [][]int32
}

type Scratch struct{ base *Store }

func (s *Store) Freeze() *Store {
	out := &Store{recs: s.recs[:len(s.recs):len(s.recs)], byKey: make(map[key]int32, len(s.byKey))}
	for k, v := range s.byKey {
		out.byKey[k] = v
	}
	for i, l := range s.lists {
		out.lists[i] = l[:len(l):len(l)]
	}
	return out
}

func FreezeSet(s *Store) map[int32]bool {
	all := make(map[int32]bool)
	for _, l := range s.lists {
		for _, a := range l {
			all[a] = true
		}
	}
	for a := range all {
		_ = a
	}
	return all
}

func (s *Store) Clone() *Store {
	for k, v := range s.byKey {
		_, _ = k, v
	}
	return s
}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if got := secondStores([]*ast.File{f}); len(got) != 3 {
		t.Errorf("the scan found %d violations in the planted file, want 3 (type Scratch, Freeze over s.byKey, FreezeSet over all): %v", len(got), got)
	}
}
