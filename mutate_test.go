package funcdb_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// mutant is a row of the mutant table (mutants_test.go).
type mutant struct {
	name  string
	pkg   string // the package go test runs, as ./internal/core
	run   string // the -run pattern of the tests that must catch it
	edits []edit // applied in order; most rows have one
}

// edit replaces old, which must occur exactly once in file (module-relative),
// with new.
type edit struct{ file, old, new string }

// TestMutants is the mutant table's gate, run by make mutate: each row of the
// table, applied alone to a copy of the module, must make its tests fail — a
// test failure, not a build failure. Every package's patterns first pass on
// the unmutated copy, so a failure is the row's doing. The copy leaves out
// .git, .bench_build and bench/; each mutated file is restored before the
// next row, so the build cache stays warm. It runs only with FUNCDB_MUTATE=1:
// one go test at a time, about 70 s on two cores.
func TestMutants(t *testing.T) {
	if os.Getenv("FUNCDB_MUTATE") != "1" {
		t.Skip("the mutant table runs with FUNCDB_MUTATE=1 (make mutate)")
	}
	start := time.Now()
	dir := t.TempDir()
	if err := copyModule(".", dir); err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	runs := map[string][]string{}
	for _, m := range mutants {
		if _, ok := runs[m.pkg]; !ok {
			pkgs = append(pkgs, m.pkg)
		}
		if !slices.Contains(runs[m.pkg], m.run) {
			runs[m.pkg] = append(runs[m.pkg], m.run)
		}
	}
	for _, pkg := range pkgs {
		if out, err := goTest(dir, pkg, strings.Join(runs[pkg], "|")); err != nil {
			t.Fatalf("go test %s fails unmutated (%v):\n%s", pkg, err, out)
		}
	}
	t.Logf("%d packages pass unmutated (%v)", len(pkgs), time.Since(start).Round(time.Second))
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			t0 := time.Now()
			restore, err := apply(dir, m.edits)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := restore(); err != nil {
					t.Fatalf("the copy stays mutated: %v", err)
				}
			}()
			out, err := goTest(dir, m.pkg, m.run)
			took := time.Since(t0).Round(100 * time.Millisecond)
			switch {
			case err == nil:
				t.Errorf("survived: go test -run '%s' %s passes (%v)", m.run, m.pkg, took)
			case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Errorf("does not compile (%v):\n%s", took, out)
			default:
				t.Logf("killed by %s (%v)", failures(out), took)
			}
		})
	}
	t.Logf("%d mutants in %v", len(mutants), time.Since(start).Round(time.Second))
}

// apply makes the edits in dir and returns the function that puts every
// file they changed back. It changes nothing when an edit's old text does
// not occur exactly once.
func apply(dir string, edits []edit) (restore func() error, err error) {
	orig, now := map[string]string{}, map[string]string{}
	for _, e := range edits {
		src, ok := now[e.file]
		if !ok {
			b, err := os.ReadFile(filepath.Join(dir, e.file))
			if err != nil {
				return nil, err
			}
			src = string(b)
			orig[e.file] = src
		}
		if n := strings.Count(src, e.old); n != 1 {
			return nil, fmt.Errorf("stale row: %q occurs %d times in %s, want once", e.old, n, e.file)
		}
		now[e.file] = strings.Replace(src, e.old, e.new, 1)
	}
	restore = func() error {
		var errs []error
		for file, src := range orig {
			errs = append(errs, os.WriteFile(filepath.Join(dir, file), []byte(src), 0o644))
		}
		return errors.Join(errs...)
	}
	for file, src := range now {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(src), 0o644); err != nil {
			return nil, errors.Join(err, restore())
		}
	}
	return restore, nil
}

// goTest runs the tests of pkg that run matches, in dir, uncached.
func goTest(dir, pkg, run string) ([]byte, error) {
	cmd := exec.Command("go", "test", "-count=1", "-timeout=3m", "-run", run, pkg)
	cmd.Dir = dir
	cmd.Env = slices.DeleteFunc(os.Environ(), func(kv string) bool { return strings.HasPrefix(kv, "FUNCDB_MUTATE=") })
	return cmd.CombinedOutput()
}

// failures lists the tests go test's output reports failed.
func failures(out []byte) string {
	var names []string
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSpace(line), "--- FAIL: "); ok {
			name, _, _ = strings.Cut(name, " ")
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "a failed run with no failed test named"
	}
	return strings.Join(names, ", ")
}

// copyModule copies the module at root into dir, leaving out the
// repository, the benchmark's build output and the benchmark module.
func copyModule(root, dir string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".git" || rel == ".bench_build" || rel == "bench" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), b, 0o644)
	})
}
