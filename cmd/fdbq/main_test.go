package main

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"funcdb"
	"funcdb/internal/core"
	"funcdb/internal/registry"
	"funcdb/internal/server"
)

// exportSpec compiles a program and writes its specification to a file.
func exportSpec(t *testing.T, src string) string {
	t.Helper()
	db, err := funcdb.Open(src, funcdb.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Export(f); err != nil {
		t.Fatalf("Export: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs fdbq and returns its stdout.
func capture(t *testing.T, args []string) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := run(args, tmp); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	tmp.Seek(0, 0)
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestQueriesAgainstTemporalSpec(t *testing.T) {
	spec := exportSpec(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	out := capture(t, []string{"-spec", spec, "?- Even(4).", "?- Even(5).", "?- Even(0).", "?- Even(T)."})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	for i, want := range []string{"true", "false", "true", "true"} {
		if !strings.HasSuffix(lines[i], want) {
			t.Errorf("line %d = %q, want %s", i, lines[i], want)
		}
	}
	// fdbq answers one way: there is no congruence-closure flag.
	if err := run([]string{"-spec", spec, "-cc", "?- Even(4)."}, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -cc") {
		t.Errorf("-cc: %v, want an unknown flag", err)
	}
}

func TestQueriesAgainstListSpec(t *testing.T) {
	spec := exportSpec(t, `
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`)
	out := capture(t, []string{"-spec", spec,
		"?- Member(ext(ext(0, a), b), a).",
		"?- Member(ext(ext(0, b), b), a).",
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasSuffix(lines[0], "true") || !strings.HasSuffix(lines[1], "false") {
		t.Errorf("list queries wrong:\n%s", out)
	}
}

func TestInfoAndDot(t *testing.T) {
	spec := exportSpec(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	out := capture(t, []string{"-spec", spec, "-info", "-dot"})
	for _, want := range []string{"temporal:   true", "reps:       2", "equations:  1", "digraph spec"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestErrors(t *testing.T) {
	spec := exportSpec(t, `
Even(0).
Even(T) -> Even(T+2).
`)
	for _, args := range [][]string{
		{},                             // no spec
		{"-spec", "/nonexistent.json"}, // unreadable
		{"-spec", spec, "Even(4)"},     // the bare form is not a query
		{"-spec", spec, "?- Even(-3)."},
		{"-spec", spec, "?- Even()."},
		{"-spec", spec, "?- Even(T+1)."}, // not uniform: needs the rules
	} {
		tmp, _ := os.CreateTemp(t.TempDir(), "out")
		if err := run(args, tmp); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// startRemote serves a registry with one program database "even" over an
// httptest server for remote-mode tests.
func startRemote(t *testing.T) string {
	t.Helper()
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("even", []byte("Even(0).\nEven(T) -> Even(T+2).\n")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestRemoteQueries(t *testing.T) {
	url := startRemote(t)
	out := capture(t, []string{"-remote", url, "-db", "even", "?- Even(4).", "?- Even(5)."})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasSuffix(lines[0], "true") || !strings.HasSuffix(lines[1], "false") {
		t.Fatalf("remote answers:\n%s", out)
	}
}

func TestRemoteInfo(t *testing.T) {
	url := startRemote(t)
	out := capture(t, []string{"-remote", url, "-info"})
	if !strings.Contains(out, `"even"`) {
		t.Fatalf("-info list:\n%s", out)
	}
	out = capture(t, []string{"-remote", url, "-db", "even", "-info"})
	if !strings.Contains(out, `"kind":"program"`) {
		t.Fatalf("-info db:\n%s", out)
	}
}

func TestRemoteErrors(t *testing.T) {
	url := startRemote(t)
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	// Unknown database surfaces the daemon's error message.
	err = run([]string{"-remote", url, "-db", "nope", "?- Even(4)."}, tmp)
	if err == nil || !strings.Contains(err.Error(), "no database named") {
		t.Fatalf("unknown db error = %v", err)
	}
	// Queries without -db are rejected client-side.
	if err := run([]string{"-remote", url, "?- Even(4)."}, tmp); err == nil {
		t.Error("query without -db accepted")
	}
	// -spec and -remote are mutually exclusive.
	if err := run([]string{"-remote", url, "-spec", "x.json"}, tmp); err == nil {
		t.Error("-spec with -remote accepted")
	}
}

func TestRemoteAddFacts(t *testing.T) {
	url := startRemote(t)
	// The fact is absent, gets added, then answers true at a new version.
	out := capture(t, []string{"-remote", url, "-db", "even", "?- Even(3)."})
	if !strings.HasSuffix(strings.TrimSpace(out), "false") {
		t.Fatalf("pre-add answer:\n%s", out)
	}
	out = capture(t, []string{"-remote", url, "-db", "even", "-add", "Even(3).", "?- Even(3)."})
	if !strings.Contains(out, "added facts (version 2)") {
		t.Fatalf("-add confirmation missing:\n%s", out)
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "true") {
		t.Fatalf("post-add answer:\n%s", out)
	}

	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	// Bad fact syntax surfaces the daemon's error body, not just a status.
	err = run([]string{"-remote", url, "-db", "even", "-add", "not ( valid"}, tmp)
	if err == nil || !strings.Contains(err.Error(), "add facts") {
		t.Fatalf("bad facts error = %v", err)
	}
	if err := run([]string{"-remote", url, "-add", "Even(3)."}, tmp); err == nil {
		t.Error("-add without -db accepted")
	}
	if err := run([]string{"-add", "Even(3)."}, tmp); err == nil {
		t.Error("-add without -remote accepted")
	}
	if err := run([]string{"-i"}, tmp); err == nil {
		t.Error("-i without -remote accepted")
	}
}
