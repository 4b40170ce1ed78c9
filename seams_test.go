package funcdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"sort"
	"strings"
	"testing"
)

// ownershipHooks are the function variables of non-test code that tests may
// assign to, each as package.name: each hands a pooled buffer back, and the
// overwrite-on-release tests swap it to scribble over what was released
// (DESIGN key decision 20). They guard who owns a buffer, not what the code
// computes.
var ownershipHooks = []string{"internal/api.putHopEncoder", "internal/server.putBuf", "internal/shard.putBody"}

// TestNoTestSeams: the code that ships is the code under test. A bug a test
// plants in shipped code goes in the mutant table (mutants_test.go), not
// through a package-level variable a test swaps: no non-test file declares
// one holding a function — a func literal, a method expression or value, or
// a func-typed zero value — that a test file assigns to, but for the
// ownership hooks, each of which must still be there.
func TestNoTestSeams(t *testing.T) {
	seams, err := testSeams(".")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seams, ownershipHooks) {
		t.Errorf("function variables of non-test code that tests assign to: %v; want only the ownership hooks %v", seams, ownershipHooks)
	}
}

// testSeams returns, sorted, package.name for every package-level variable
// of a non-test file of the module at root that holds a function and that a
// test file of its package assigns to.
func testSeams(root string) ([]string, error) {
	type file struct {
		f    *ast.File
		test bool
	}
	byPkg := map[string][]file{}
	fset := token.NewFileSet()
	err := walkModule(root, func(pkg, path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		byPkg[pkg] = append(byPkg[pkg], file{f, strings.HasSuffix(path, "_test.go")})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var seams []string
	for pkg, files := range byPkg {
		name, funcVars := "", map[string]bool{}
		for _, f := range files {
			if f.test {
				continue
			}
			name = f.f.Name.Name
			for _, d := range f.f.Decls {
				if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
					for _, spec := range g.Specs {
						vs := spec.(*ast.ValueSpec)
						_, typed := vs.Type.(*ast.FuncType)
						for i, id := range vs.Names {
							if typed || i < len(vs.Values) && holdsFunc(vs.Values[i]) {
								funcVars[id.Name] = true
							}
						}
					}
				}
			}
		}
		assigned := map[string]bool{}
		for _, f := range files {
			if !f.test {
				continue
			}
			external := f.f.Name.Name != name // package x_test reaches x's names as x.Name
			ast.Inspect(f.f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || as.Tok != token.ASSIGN {
					return true
				}
				for _, lhs := range as.Lhs {
					v := ""
					switch l := lhs.(type) {
					case *ast.Ident:
						if !external {
							v = l.Name
						}
					case *ast.SelectorExpr:
						if x, ok := l.X.(*ast.Ident); ok && external && x.Name == name {
							v = l.Sel.Name
						}
					}
					if funcVars[v] && !assigned[v] {
						assigned[v] = true
						seams = append(seams, pkg+"."+v)
					}
				}
				return true
			})
		}
	}
	sort.Strings(seams)
	return seams, nil
}

// holdsFunc reports whether a variable's initial value is a function: a func
// literal, or a selector — a method expression ((*T).M), a method value
// (v.M) or a package's function (pkg.F).
func holdsFunc(e ast.Expr) bool {
	switch e.(type) {
	case *ast.FuncLit, *ast.SelectorExpr:
		return true
	}
	return false
}
