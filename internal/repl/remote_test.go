package repl_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/registry"
	"funcdb/internal/repl"
	"funcdb/internal/server"
)

// startDaemon serves a registry with one program database "even".
func startDaemon(t *testing.T) string {
	t.Helper()
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("even", []byte("Even(0).\nEven(T) -> Even(T+2).\n")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestRunRemoteSession(t *testing.T) {
	url := startDaemon(t)
	c := &repl.RemoteClient{Base: url, DB: "even"}
	script := strings.Join([]string{
		"help",
		"?- Even(4).",
		"ask ?- Even(3).",
		"add Even(3).",
		"?- Even(3).",
		"info",
		"add not ( valid",
		"quit",
	}, "\n") + "\n"
	var out strings.Builder
	if err := repl.RunRemote(context.Background(), c, strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"add Fact(args).",   // help text
		"true (version 1)",  // Even(4) before the extension
		"false (version 1)", // Even(3) before the extension
		"ok (version 2)",    // add bumped the catalog version
		"true (version 2)",  // Even(3) after the extension
		`"kind": "program"`, // info
		"error:",            // daemon's message for the bad facts
	} {
		if !strings.Contains(text, want) {
			t.Errorf("session output missing %q:\n%s", want, text)
		}
	}
	// The daemon's error body is surfaced, not just an HTTP status: the
	// parser's position and message come through verbatim.
	if !strings.Contains(text, "expected ')'") {
		t.Errorf("daemon error body not surfaced:\n%s", text)
	}
}

// TestRemoteTrace: a tracing client gets the daemon's span trace back and
// renders it as an indented tree with the engine counters.
func TestRemoteTrace(t *testing.T) {
	url := startDaemon(t)
	c := &repl.RemoteClient{Base: url, DB: "even", Trace: true}
	yes, _, tr, err := c.AskTrace(t.Context(), "?- Even(4).")
	if err != nil {
		t.Fatal(err)
	}
	if !yes {
		t.Error("Even(4) = false")
	}
	if tr == nil {
		t.Fatal("tracing client got no trace report")
	}
	var out strings.Builder
	repl.RenderTrace(&out, tr)
	text := out.String()
	if !strings.Contains(text, "trace "+tr.ID) {
		t.Errorf("rendered trace missing header:\n%s", text)
	}
	if !strings.Contains(text, "parse") {
		t.Errorf("rendered trace missing parse span:\n%s", text)
	}

	// The interactive session prints the tree after each answer.
	var session strings.Builder
	if err := repl.RunRemote(context.Background(), c, strings.NewReader("?- Even(2).\nquit\n"), &session); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(session.String(), "trace ") {
		t.Errorf("session output missing trace tree:\n%s", session.String())
	}

	// A non-tracing client keeps the old behavior: no report.
	c2 := &repl.RemoteClient{Base: url, DB: "even"}
	if _, _, tr, err := c2.AskTrace(t.Context(), "?- Even(4)."); err != nil || tr != nil {
		t.Fatalf("non-tracing ask = trace %v err %v, want nil trace", tr, err)
	}
}

func TestRemoteClientErrors(t *testing.T) {
	url := startDaemon(t)
	c := &repl.RemoteClient{Base: url, DB: "nosuch"}
	if _, _, err := c.Ask(context.Background(), "?- Even(4)."); err == nil || !strings.Contains(err.Error(), "no database named") {
		t.Fatalf("Ask on missing db = %v, want daemon's message", err)
	}
	if _, err := c.AddFacts(context.Background(), "Even(3)."); err == nil || !strings.Contains(err.Error(), "no database named") {
		t.Fatalf("AddFacts on missing db = %v, want daemon's message", err)
	}
	if _, err := c.Info(context.Background()); err == nil {
		t.Fatal("Info on missing db succeeded")
	}
}
