package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/core"
	"funcdb/internal/registry"
	"funcdb/internal/store"
	"funcdb/internal/wire"
)

// newPrimary builds a store-backed registry serving the replication
// endpoints, with a short heartbeat so caught-up stream tests are quick.
func newPrimary(t *testing.T) (*httptest.Server, *registry.Registry, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Fsync: store.FsyncNever, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(core.Options{})
	if _, err := st.Recover(reg); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Config{Repl: st, ReplHeartbeat: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); st.Close() })
	return ts, reg, st
}

func fetchManifest(t *testing.T, base string) (wire.Manifest, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	rec, err := wire.ReadRecord(br)
	if err != nil {
		t.Fatal(err)
	}
	m, err := wire.DecodeManifest(rec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	return m, raw
}

func TestReplSnapshotEmptyPrimary(t *testing.T) {
	ts, _, _ := newPrimary(t)
	m, raw := fetchManifest(t, ts.URL)
	if m.SnapshotLSN != 0 || m.LastLSN != 0 || len(raw) != 0 {
		t.Fatalf("empty primary manifest = %+v with %d bytes", m, len(raw))
	}
}

func TestReplSnapshotOnDemand(t *testing.T) {
	ts, reg, _ := newPrimary(t)
	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	// No snapshot has been taken; the endpoint must take one on demand.
	m, raw := fetchManifest(t, ts.URL)
	if m.SnapshotLSN != 1 || m.LastLSN != 1 {
		t.Fatalf("manifest = %+v, want snapshot/last lsn 1", m)
	}
	if uint64(len(raw)) != m.SnapshotBytes || len(raw) == 0 {
		t.Fatalf("snapshot bytes = %d, manifest says %d", len(raw), m.SnapshotBytes)
	}
	lsn, names, err := store.InspectSnapshot(raw)
	if err != nil || lsn != 1 || len(names) != 1 || names[0] != "even" {
		t.Fatalf("InspectSnapshot = %d, %v, %v", lsn, names, err)
	}
}

func TestReplWALStreamsAndHeartbeats(t *testing.T) {
	ts, reg, _ := newPrimary(t)
	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/repl/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal status = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	readFrame := func() wire.Frame {
		t.Helper()
		rec, err := wire.ReadRecord(br)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		f, err := wire.DecodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := readFrame()
	if f.Kind != wire.FrameMutation || f.PrimaryLast != 1 {
		t.Fatalf("first frame = %+v, want mutation at primaryLast 1", f)
	}
	lsn, m, err := wire.DecodeMutation(f.Record)
	if err != nil || lsn != 1 || m.Op != wire.OpPut || m.Name != "even" {
		t.Fatalf("decoded lsn=%d m=%+v err=%v", lsn, m, err)
	}
	// Caught up: the next frame is a heartbeat.
	f = readFrame()
	if f.Kind != wire.FrameHeartbeat || f.PrimaryLast != 1 || f.TSMillis == 0 {
		t.Fatalf("second frame = %+v, want heartbeat", f)
	}
	// A new mutation flows through the open stream.
	if _, err := reg.ExtendFacts("even", []byte("Even(101).")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		f = readFrame()
		if f.Kind == wire.FrameMutation {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mutation never arrived on the stream")
		}
	}
	if lsn, m, err := wire.DecodeMutation(f.Record); err != nil || lsn != 2 || m.Op != wire.OpExtend {
		t.Fatalf("streamed mutation lsn=%d m=%+v err=%v", lsn, m, err)
	}
}

func TestReplWALCompactedIs410(t *testing.T) {
	ts, reg, st := newPrimary(t)
	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := reg.ExtendFacts("even", []byte(fmt.Sprintf("Even(%d).", 100+2*i))); err != nil {
			t.Fatal(err)
		}
		if err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/repl/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status = %d, want 410", resp.StatusCode)
	}
	var body struct {
		Error api.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "compacted" {
		t.Fatalf("code = %q, want compacted", body.Error.Code)
	}
}

func TestReplWALBadFrom(t *testing.T) {
	ts, _, _ := newPrimary(t)
	for _, q := range []string{"", "from=0", "from=x"} {
		resp, err := http.Get(ts.URL + "/v1/repl/wal?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestReplEndpointsAbsentWithoutStore(t *testing.T) {
	reg := registry.New(core.Options{})
	ts := httptest.NewServer(New(reg, Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("even", []byte(evenSrc)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Config{ReadOnly: true}).Handler())
	defer ts.Close()

	check := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s: status = %d, want 403", method, path, resp.StatusCode)
		}
		var env struct {
			Error api.ErrorBody `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != "read_only_replica" {
			t.Fatalf("%s %s: code = %q, want read_only_replica", method, path, env.Error.Code)
		}
	}
	check(http.MethodPut, "/v1/db/x", "P(a).")
	check(http.MethodDelete, "/v1/db/even", "")
	check(http.MethodPost, "/v1/db/even/facts", `{"facts":"Even(44)."}`)

	// Reads still work.
	resp, err := http.Post(ts.URL+"/v1/db/even/ask", "application/json",
		strings.NewReader(`{"query":"?- Even(42)."}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ask on replica: status = %d", resp.StatusCode)
	}
}

func TestReadyzGating(t *testing.T) {
	reg := registry.New(core.Options{})
	gate := errors.New("still bootstrapping")
	var ready bool
	ts := httptest.NewServer(New(reg, Config{Ready: func() error {
		if !ready {
			return gate
		}
		return nil
	}}).Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "still bootstrapping") {
		t.Fatalf("not ready: %d %s", code, body)
	}
	// Liveness is unaffected by readiness.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	ready = true
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("ready: %d, want 200", code)
	}
}

func TestReadyzDefaultAlwaysReady(t *testing.T) {
	reg := registry.New(core.Options{})
	ts := httptest.NewServer(New(reg, Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
}
