package funcdb_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// layering pins, per package, exactly which module packages its non-test
// imports reach, directly or not. A process that only forwards records
// (fdbrouter) must not link the compiler, the kit both daemons share (api,
// which frames the router's hop) reaches only obs and the codec, and the
// record codec under every daemon must stay a leaf. Splitting core into a
// serving part and a reproduction part adds rows here.
var layering = []struct {
	pkg   string   // module-relative package directory
	reach []string // the module packages it reaches, sorted
}{
	{"cmd/fdbrouter", []string{"internal/api", "internal/obs", "internal/shard", "internal/wire"}},
	{"internal/api", []string{"internal/obs", "internal/wire"}},
	{"internal/wire", nil},
}

// TestLayering parses the import clause of every non-test file of the
// module and checks each row of layering against the graph.
func TestLayering(t *testing.T) {
	graph, err := importGraph(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(graph) < 30 {
		t.Fatalf("found only %d packages: the guard is not looking at the module", len(graph))
	}
	for _, v := range layeringViolations(graph) {
		t.Error(v)
	}
}

// TestLayeringCatches: the guard refuses a planted edge — the codec
// importing the catalog, which drags the compiler into the router — and
// ignores what it must: test files, nested modules and testdata.
func TestLayeringCatches(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n")
	write("cmd/fdbrouter/main.go", `package main
import (
	"fmt"
	"m/internal/api"
	"m/internal/shard"
)`)
	write("internal/api/api.go", `package api
import (
	_ "m/internal/obs"
	_ "m/internal/wire"
)`)
	write("internal/obs/obs.go", "package obs")
	write("internal/shard/shard.go", `package shard
import (
	"m/internal/api"
	"m/internal/wire"
)`)
	write("internal/shard/shard_test.go", `package shard
import _ "m/internal/core"`)
	write("internal/wire/wire.go", `package wire
import _ "m/internal/registry"`)
	write("internal/registry/registry.go", `package registry
import _ "m/internal/core"`)
	write("internal/core/core.go", "package core")
	write("internal/core/testdata/x.go", `package x
import _ "m/internal/registry"`)
	write("bench/go.mod", "module m/bench\n")
	write("bench/main.go", `package main
import _ "m/internal/core"`)

	graph, err := importGraph(root)
	if err != nil {
		t.Fatal(err)
	}
	got := layeringViolations(graph)
	want := []string{
		"cmd/fdbrouter reaches [internal/api internal/core internal/obs internal/registry internal/shard internal/wire], want [internal/api internal/obs internal/shard internal/wire]",
		"internal/api reaches [internal/core internal/obs internal/registry internal/wire], want [internal/obs internal/wire]",
		"internal/wire reaches [internal/core internal/registry], want []",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("violations:\n%q\nwant\n%q", got, want)
	}
}

// importGraph maps every package directory of the module at root (relative
// to root, "." for the root package) to the module packages its non-test
// files import. Nested modules and testdata are not part of the module.
func importGraph(root string) (map[string][]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	first, _, _ := strings.Cut(string(mod), "\n")
	prefix, ok := strings.CutPrefix(strings.TrimSpace(first), "module ")
	if !ok {
		return nil, fmt.Errorf("%s/go.mod does not open with a module line", root)
	}
	graph := map[string][]string{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			_, nested := os.Stat(filepath.Join(path, "go.mod"))
			if path != root && (nested == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(root, filepath.Dir(path))
		pkg = filepath.ToSlash(pkg)
		if _, ok := graph[pkg]; !ok {
			graph[pkg] = nil
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == prefix {
				graph[pkg] = append(graph[pkg], ".")
			} else if rel, ok := strings.CutPrefix(p, prefix+"/"); ok {
				graph[pkg] = append(graph[pkg], rel)
			}
		}
		return nil
	})
	return graph, err
}

// layeringViolations checks every row of layering against graph.
func layeringViolations(graph map[string][]string) []string {
	var out []string
	for _, rule := range layering {
		if _, ok := graph[rule.pkg]; !ok {
			out = append(out, rule.pkg+" is not a package of the module")
			continue
		}
		seen := map[string]bool{}
		var visit func(string)
		visit = func(p string) {
			for _, q := range graph[p] {
				if !seen[q] {
					seen[q] = true
					visit(q)
				}
			}
		}
		visit(rule.pkg)
		reach := make([]string, 0, len(seen))
		for p := range seen {
			reach = append(reach, p)
		}
		sort.Strings(reach)
		if strings.Join(reach, " ") != strings.Join(rule.reach, " ") {
			out = append(out, fmt.Sprintf("%s reaches %v, want %v", rule.pkg, reach, rule.reach))
		}
	}
	return out
}
