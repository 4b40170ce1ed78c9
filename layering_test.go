package funcdb_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// layering pins, per package, exactly which module packages its non-test
// imports reach, directly or not. A process that only forwards records
// (fdbrouter) must not link the compiler, the kit both daemons share (api,
// which frames the router's hop) reaches only obs and the codec, and the
// record codec under every daemon must stay a leaf. The parser, whose ground
// reader lowers a query as it lexes it, reaches only the symbols and terms it
// names: it hands its events to a sink in core, so it can neither write a
// shape nor hash a fingerprint, and core's shape writer stays the one writer
// of the format. The document codec answers nothing: a document is answered
// as a core snapshot, so specio reaches no decision procedure of its own
// (congruence closure is core's, behind MethodEquational); what it reaches it
// reaches through specgraph, whose Spec it exports and, from a document,
// builds. What a binary links is
// what it serves: core, and with it fdbd and fdbq, reaches none of the
// paper's reproductions (canonical, temporal), its baselines (topdown,
// fixpoint) or fdbc's shell, and canonical — §3.6 only — reaches neither
// core nor the parser.
var layering = []struct {
	pkg   string   // module-relative package directory
	reach []string // the module packages it reaches, sorted
}{
	{"cmd/fdbd", []string{"internal/admission", "internal/api", "internal/ast", "internal/congruence", "internal/core", "internal/engine",
		"internal/explain", "internal/facts", "internal/intern", "internal/normform", "internal/obs", "internal/params",
		"internal/parser", "internal/query", "internal/registry", "internal/replica", "internal/rewrite", "internal/server", "internal/specgraph",
		"internal/specio", "internal/store", "internal/subst", "internal/symbols", "internal/term", "internal/watch", "internal/wire"}},
	{"cmd/fdbq", []string{"internal/api", "internal/ast", "internal/congruence", "internal/core", "internal/engine", "internal/explain",
		"internal/facts", "internal/intern", "internal/normform", "internal/obs", "internal/params", "internal/parser",
		"internal/query", "internal/registry", "internal/repl", "internal/rewrite", "internal/specgraph", "internal/specio", "internal/subst",
		"internal/symbols", "internal/term", "internal/watch", "internal/wire"}},
	{"cmd/fdbrouter", []string{"internal/api", "internal/obs", "internal/shard", "internal/wire"}},
	{"internal/api", []string{"internal/obs", "internal/wire"}},
	{"internal/canonical", []string{"internal/ast", "internal/congruence", "internal/engine", "internal/facts", "internal/intern",
		"internal/normform", "internal/obs", "internal/rewrite", "internal/specgraph", "internal/subst", "internal/symbols", "internal/term"}},
	{"internal/core", []string{"internal/ast", "internal/congruence", "internal/engine", "internal/explain", "internal/facts", "internal/intern",
		"internal/normform", "internal/obs", "internal/params", "internal/parser", "internal/query", "internal/rewrite",
		"internal/specgraph", "internal/specio", "internal/subst", "internal/symbols", "internal/term", "internal/wire"}},
	{"internal/parser", []string{"internal/ast", "internal/intern", "internal/symbols", "internal/term"}},
	{"internal/specio", []string{"internal/ast", "internal/engine", "internal/facts", "internal/intern", "internal/normform",
		"internal/obs", "internal/rewrite", "internal/specgraph", "internal/subst", "internal/symbols", "internal/term", "internal/wire"}},
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

// TestLayeringCatches: the guard refuses planted edges and ignores what it
// must — test files, nested modules and testdata. It builds a module that
// keeps every row (a row's package imports what it reaches, every other
// package is a leaf), checks that it passes, then plants one edge at a time
// and checks that the row named reports reaching the planted package.
func TestLayeringCatches(t *testing.T) {
	violations := func(from, to string) []string {
		t.Helper()
		root := t.TempDir()
		write := func(rel, src string) {
			path := filepath.Join(root, rel)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write("go.mod", "module m\n")
		imports := map[string][]string{}
		for _, rule := range layering {
			imports[rule.pkg] = append(imports[rule.pkg], rule.reach...)
			for _, p := range rule.reach {
				if _, ok := imports[p]; !ok {
					imports[p] = nil
				}
			}
		}
		if from != "" {
			imports[from] = append(imports[from], to)
		}
		for pkg, imps := range imports {
			src := "package " + filepath.Base(pkg) + "\n"
			for _, imp := range imps {
				src += "import _ \"m/" + imp + "\"\n"
			}
			write(pkg+"/x.go", src)
		}
		// None of these is part of the module's import graph.
		write("internal/shard/shard_test.go", "package shard\nimport _ \"m/internal/core\"\n")
		write("internal/wire/testdata/x.go", "package x\nimport _ \"m/internal/registry\"\n")
		write("internal/wire/nested/go.mod", "module m/internal/wire/nested\n")
		write("internal/wire/nested/x.go", "package nested\nimport _ \"m/internal/registry\"\n")

		graph, err := importGraph(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, ignored := range []string{"internal/wire/testdata", "internal/wire/nested"} {
			if _, ok := graph[ignored]; ok {
				t.Errorf("%s is counted as a package of the module", ignored)
			}
		}
		return layeringViolations(graph)
	}
	if got := violations("", ""); len(got) != 0 {
		t.Fatalf("a module keeping every row is refused:\n%s", strings.Join(got, "\n"))
	}
	for _, plant := range []struct {
		from, to string // the planted import
		row      string // the row that must report it
	}{
		{"internal/wire", "internal/registry", "cmd/fdbrouter"},       // the codec drags the catalog, and the compiler, into the router
		{"internal/parser", "internal/core", "internal/parser"},       // the ground reader writes shapes itself
		{"internal/specio", "internal/congruence", "internal/specio"}, // the document codec decides membership by a congruence of its own
		{"internal/core", "internal/topdown", "internal/core"},        // core wraps a baseline again
		{"internal/repl", "internal/canonical", "cmd/fdbq"},           // the client renders a reproduction
	} {
		got := violations(plant.from, plant.to)
		reported := false
		for _, v := range got {
			reach, ok := strings.CutPrefix(v, plant.row+" reaches [")
			reach, _, _ = strings.Cut(reach, "]")
			reported = reported || ok && slices.Contains(strings.Fields(reach), plant.to)
		}
		if !reported {
			t.Errorf("%s importing %s: %s does not report it; violations:\n%s", plant.from, plant.to, plant.row, strings.Join(got, "\n"))
		}
	}
}

// importGraph maps every package directory of the module at root (relative
// to root, "." for the root package) to the module packages its non-test
// files import.
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
	err = walkModule(root, func(pkg, path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
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

// walkModule calls visit with every Go file of the module at root, test
// files included, and its package directory relative to root ("." for the
// root package). Nested modules and testdata are not part of the module.
func walkModule(root string, visit func(pkg, path string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		pkg, _ := filepath.Rel(root, filepath.Dir(path))
		return visit(filepath.ToSlash(pkg), path)
	})
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
