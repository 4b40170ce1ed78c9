package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The crash-recovery test runs fdbd as a real child process (the test
// binary re-executing itself, the standard helper-process pattern), so a
// SIGKILL exercises exactly what a production crash does: no deferred
// cleanup, no shutdown snapshot — recovery sees only what the WAL fsync'd.

// TestHelperProcess is not a test: when re-executed with FDBD_HELPER set it
// becomes the fdbd daemon, running run() with the NUL-separated args from
// the environment.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("FDBD_HELPER") != "1" {
		return
	}
	args := strings.Split(os.Getenv("FDBD_ARGS"), "\n")
	if err := run(args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fdbd:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// daemonProc is a child fdbd process under test control.
type daemonProc struct {
	cmd     *exec.Cmd
	base    string
	outMu   sync.Mutex
	out     bytes.Buffer  // accumulated stdout, for log assertions
	scanned chan struct{} // closed once the stdout scanner drains
}

// outputNow returns what the daemon has printed so far.
func (d *daemonProc) outputNow() string {
	d.outMu.Lock()
	defer d.outMu.Unlock()
	return d.out.String()
}

// output waits for the stdout scanner to finish (the process must have
// exited) and returns everything the daemon printed.
func (d *daemonProc) output() string {
	<-d.scanned
	return d.outputNow()
}

// spawnDaemon re-executes the test binary as an fdbd daemon with the given
// flags and waits for its listen line.
func spawnDaemon(t *testing.T, args ...string) *daemonProc {
	t.Helper()
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess")
	cmd.Env = append(os.Environ(), "FDBD_HELPER=1", "FDBD_ARGS="+strings.Join(args, "\n"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemonProc{cmd: cmd, scanned: make(chan struct{})}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	lines := make(chan string, 64)
	go func() {
		defer close(d.scanned)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			d.outMu.Lock()
			d.out.WriteString(sc.Text() + "\n")
			d.outMu.Unlock()
			lines <- sc.Text()
		}
		close(lines)
	}()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("daemon exited before listening:\n%s", d.output())
			}
			if _, rest, found := strings.Cut(line, "listening on "); found {
				d.base = strings.TrimSpace(rest)
				return d
			}
		case <-deadline:
			d.cmd.Process.Kill()
			d.cmd.Wait()
			t.Fatalf("daemon never announced its address:\n%s", d.output())
		}
	}
}

// kill SIGKILLs the daemon — no graceful shutdown, no final snapshot.
func (d *daemonProc) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

// terminate sends SIGTERM and waits for the graceful-shutdown path.
func (d *daemonProc) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait closes the stdout pipe once the process has exited, dropping
	// whatever the scanner has not read yet: drain it first.
	<-d.scanned
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly: %v\n%s", err, d.output())
	}
}

func httpJSON(t *testing.T, method, url string, body string) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(raw) > 0 && json.Valid(raw) {
		json.Unmarshal(raw, &out)
	}
	return resp.StatusCode, out
}

// catalogView fetches everything a client can observe about the catalog:
// the database list (names, kinds, versions) plus ask and answers results
// per database.
func catalogView(t *testing.T, base string) string {
	t.Helper()
	code, body := httpJSON(t, "GET", base+"/v1/dbs", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d %v", code, body)
	}
	view, _ := json.Marshal(body)
	sb := strings.Builder{}
	sb.Write(view)
	for _, probe := range []struct{ db, q string }{
		{"even", "?- Even(2)."}, {"even", "?- Even(3)."}, {"even", "?- Even(7)."},
		{"meet", "?- Meets(5, jan)."},
	} {
		code, body := httpJSON(t, "POST", base+"/v1/db/"+probe.db+"/ask",
			fmt.Sprintf(`{"query":%q}`, probe.q))
		fmt.Fprintf(&sb, "\nask %s %s -> %d %v %v", probe.db, probe.q, code, body["answer"], body["version"])
	}
	code, body = httpJSON(t, "POST", base+"/v1/db/even/answers", `{"query":"?- Even(T).","depth":4}`)
	raw, _ := json.Marshal(body["tuples"])
	fmt.Fprintf(&sb, "\nanswers even -> %d %v %s", code, body["count"], raw)
	return sb.String()
}

// TestCrashRecoveryEndToEnd: mutate a durable daemon over HTTP, SIGKILL it,
// restart on the same data directory and require the identical catalog —
// names, versions, ask and answers results. Then shut down gracefully and
// verify the snapshot boot path serves the same catalog again.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dataDir := t.TempDir()
	d := spawnDaemon(t, "-data", dataDir, "-fsync", "always")

	// Build up catalog state the recovery must reproduce: puts, an
	// extension, a delete, and a re-put (version history matters).
	if code, body := httpJSON(t, "PUT", d.base+"/v1/db/even", "Even(0). Even(T) -> Even(T+2)."); code != http.StatusCreated {
		t.Fatalf("put even: %d %v", code, body)
	}
	if code, body := httpJSON(t, "PUT", d.base+"/v1/db/meet",
		"Meets(0, tony). Next(tony, jan). Next(jan, tony). Meets(T, X), Next(X, Y) -> Meets(T+1, Y)."); code != http.StatusCreated {
		t.Fatalf("put meet: %d %v", code, body)
	}
	if code, body := httpJSON(t, "POST", d.base+"/v1/db/even/facts", `{"facts":"Even(3)."}`); code != http.StatusOK {
		t.Fatalf("facts: %d %v", code, body)
	} else if body["version"] != float64(2) {
		t.Fatalf("facts version = %v, want 2", body["version"])
	}
	if code, _ := httpJSON(t, "DELETE", d.base+"/v1/db/meet", ""); code != http.StatusNoContent {
		t.Fatalf("delete meet: %d", code)
	}
	if code, body := httpJSON(t, "PUT", d.base+"/v1/db/meet",
		"Meets(0, tony). Next(tony, jan). Next(jan, tony). Meets(T, X), Next(X, Y) -> Meets(T+1, Y)."); code != http.StatusCreated {
		t.Fatalf("re-put meet: %d %v", code, body)
	} else if body["version"] != float64(2) {
		t.Fatalf("re-put version = %v, want 2 (delete must not reset the counter)", body["version"])
	}
	want := catalogView(t, d.base)

	// Every mutation above was acknowledged with -fsync always, so a
	// SIGKILL — no drain, no shutdown snapshot — must lose nothing.
	d.kill(t)

	d2 := spawnDaemon(t, "-data", dataDir, "-fsync", "always")
	if got := catalogView(t, d2.base); got != want {
		t.Fatalf("catalog after crash differs:\n got: %s\nwant: %s", got, want)
	}
	if !strings.Contains(d2.outputNow(), "recovered 2 database(s)") {
		t.Fatalf("recovery line missing:\n%s", d2.outputNow())
	}

	// Graceful shutdown writes a snapshot; the next boot recovers from it
	// (no WAL replay) and serves the same catalog.
	d2.terminate(t)
	if !strings.Contains(d2.output(), "snapshot written") {
		t.Fatalf("shutdown snapshot line missing:\n%s", d2.output())
	}
	d3 := spawnDaemon(t, "-data", dataDir, "-fsync", "always")
	if got := catalogView(t, d3.base); got != want {
		t.Fatalf("catalog after snapshot boot differs:\n got: %s\nwant: %s", got, want)
	}
	// Durability gauges are live on /metrics.
	resp, err := http.Get(d3.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, gauge := range []string{"wal_bytes", "wal_records_since_snapshot", "recovery_last_us", "snapshots_total"} {
		if !strings.Contains(string(met), gauge) {
			t.Errorf("/metrics missing %s:\n%s", gauge, met)
		}
	}
	d3.terminate(t)
}
