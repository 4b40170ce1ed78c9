package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Smoke tests: the fast tables must run without panicking. The full sweep
// (t41 in particular) is exercised by `fdbench all` in the Makefile, not in
// unit tests, to keep `go test ./...` quick.
func TestFastTables(t *testing.T) {
	for name, f := range map[string]func(){
		"t43": t43,
		"f2":  f2,
		"a4":  a4,
	} {
		name, f := name, f
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s panicked: %v", name, r)
				}
			}()
			f()
		})
	}
}

// TestTablesOnly keeps a second measurement stack from growing back here:
// this command prints the paper's tables from the library, so no file of it
// imports the HTTP stack or a serving package, and no BENCH_*.json sits at
// the module root beside BENCHMARK.json. A number about a running daemon is a
// row of bench/ (bash bench/run.sh); a gate on one is a Go test beside the
// code it gates.
func TestTablesOnly(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil || len(paths) < 2 {
		t.Fatalf("found %d files (%v): the guard is not looking at the package", len(paths), err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range servingImports(f) {
			t.Errorf("%s imports %s: a service benchmark belongs in bench/", path, imp)
		}
	}
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	reports, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		t.Errorf("%s: a benchmark report outside the ledger; bench/run.sh writes under bench/out/", filepath.Base(r))
	}
}

// servingImports returns the imports of f that a table printer has no use
// for: net/http and the packages that serve, store, replicate or admit.
func servingImports(f *ast.File) []string {
	var out []string
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch strings.TrimPrefix(path, "funcdb/internal/") {
		case "net/http", "net/http/httptest", "server", "shard", "store", "replica", "watch", "admission", "api":
			out = append(out, path)
		}
	}
	return out
}

// TestTablesOnlyCatches: the guard sees each import it exists to refuse and
// leaves the library's alone.
func TestTablesOnlyCatches(t *testing.T) {
	src := `package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"

	"funcdb/internal/core"
	srv "funcdb/internal/server"
	"funcdb/internal/shard"
	"funcdb/internal/storefront"
)
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(servingImports(f), " ")
	if want := "net/http net/http/httptest funcdb/internal/server funcdb/internal/shard"; got != want {
		t.Errorf("refused %q, want %q", got, want)
	}
}
