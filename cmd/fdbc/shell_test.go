package main

import (
	"strings"
	"testing"

	"funcdb/internal/core"
)

func openMeetings(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.Open(`
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`, core.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func exec(t *testing.T, db *core.Database, line string) string {
	t.Helper()
	var out strings.Builder
	if _, err := execute(db, line, &out); err != nil {
		t.Fatalf("execute(%q): %v", line, err)
	}
	return out.String()
}

func TestAskCommand(t *testing.T) {
	db := openMeetings(t)
	if got := exec(t, db, "ask ?- Meets(4, tony)."); !strings.Contains(got, "true") {
		t.Errorf("ask = %q, want true", got)
	}
	if got := exec(t, db, "ask ?- Meets(5, tony)."); !strings.Contains(got, "false") {
		t.Errorf("ask = %q, want false", got)
	}
}

func TestQueryCommand(t *testing.T) {
	db := openMeetings(t)
	got := exec(t, db, "?- Meets(T, X).")
	if !strings.Contains(got, "QUERY(0, tony)") || !strings.Contains(got, "QUERY(1, jan)") {
		t.Errorf("answer spec missing tuples:\n%s", got)
	}
}

func TestEnumCommand(t *testing.T) {
	db := openMeetings(t)
	got := exec(t, db, "enum 3 ?- Meets(T, tony).")
	if !strings.Contains(got, "2 answers to depth 3") {
		t.Errorf("enum output:\n%s", got)
	}
}

func TestDumpCommands(t *testing.T) {
	db := openMeetings(t)
	for kind, want := range map[string]string{
		"graph":     "representatives",
		"eq":        "equational specification",
		"temporal":  "prefix 0, period 2",
		"canonical": "% B: the primary database",
		"congr":     "Cong(S, S).",
		"min":       "minimized specification",
	} {
		got := exec(t, db, "dump "+kind)
		if !strings.Contains(got, want) {
			t.Errorf("dump %s missing %q:\n%s", kind, want, got)
		}
	}
}

func TestStatsAndHelp(t *testing.T) {
	db := openMeetings(t)
	if got := exec(t, db, "stats"); !strings.Contains(got, "2 reps") {
		t.Errorf("stats output:\n%s", got)
	}
	if got := exec(t, db, "help"); !strings.Contains(got, "commands:") {
		t.Errorf("help output:\n%s", got)
	}
}

func TestErrorsAreReported(t *testing.T) {
	db := openMeetings(t)
	var out strings.Builder
	if _, err := execute(db, "dump nosuch", &out); err == nil {
		t.Errorf("unknown dump kind accepted")
	}
	if _, err := execute(db, "frobnicate", &out); err == nil {
		t.Errorf("unknown command accepted")
	}
	if _, err := execute(db, "enum x ?- Meets(T, X).", &out); err == nil {
		t.Errorf("bad enum depth accepted")
	}
}

func TestRunSession(t *testing.T) {
	db := openMeetings(t)
	in := strings.NewReader("ask ?- Meets(2, tony).\nstats\nquit\n")
	var out strings.Builder
	if err := shell(db, in, &out); err != nil {
		t.Fatalf("shell: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "true") || !strings.Contains(s, "2 reps") {
		t.Errorf("session transcript:\n%s", s)
	}
	if strings.Count(s, "funcdb>") < 3 {
		t.Errorf("prompts missing:\n%s", s)
	}
}

func TestAddCommand(t *testing.T) {
	db := openMeetings(t)
	if got := exec(t, db, "ask ?- Meets(1, tony)."); !strings.Contains(got, "false") {
		t.Fatalf("precondition: Meets(1, tony) should be false")
	}
	if got := exec(t, db, "add Meets(1, tony)."); !strings.Contains(got, "ok") {
		t.Fatalf("add output: %q", got)
	}
	// tony now also meets on odd days (the added seed propagates).
	if got := exec(t, db, "ask ?- Meets(3, tony)."); !strings.Contains(got, "true") {
		t.Errorf("Meets(3, tony) after add = %q, want true", got)
	}
	var out strings.Builder
	if _, err := execute(db, "add Meets(T, tony).", &out); err == nil {
		t.Errorf("non-ground add accepted")
	}
}

func TestRuleCommand(t *testing.T) {
	db := openMeetings(t)
	if got := exec(t, db, "ask ?- Skipped(1)."); !strings.Contains(got, "false") {
		t.Fatalf("precondition failed: %q", got)
	}
	got := exec(t, db, "rule Meets(T, jan) -> Skipped(T+1). @functional Skipped/1.")
	if !strings.Contains(got, "ok (recompiled)") {
		t.Fatalf("rule output: %q", got)
	}
	// jan meets on odd days, so Skipped holds on even days >= 2.
	if got := exec(t, db, "ask ?- Skipped(2)."); !strings.Contains(got, "true") {
		t.Errorf("Skipped(2) = %q, want true", got)
	}
	if got := exec(t, db, "ask ?- Skipped(3)."); !strings.Contains(got, "false") {
		t.Errorf("Skipped(3) = %q, want false", got)
	}
	var out strings.Builder
	if _, err := execute(db, "rule ?- Meets(0, tony).", &out); err == nil {
		t.Errorf("query accepted by rule command")
	}
}

func TestLintCommand(t *testing.T) {
	db := openMeetings(t)
	if got := exec(t, db, "lint"); !strings.Contains(got, "no findings") {
		t.Errorf("lint on clean program: %q", got)
	}
}

func TestRunToleratesBadLines(t *testing.T) {
	db := openMeetings(t)
	in := strings.NewReader("nonsense\nask ?- Meets(0, tony).\n")
	var out strings.Builder
	if err := shell(db, in, &out); err != nil {
		t.Fatalf("shell: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "error:") || !strings.Contains(s, "true") {
		t.Errorf("transcript:\n%s", s)
	}
}
