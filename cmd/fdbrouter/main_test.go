package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/shard"
)

// TestServeSmoke boots the daemon over a map file pointing at a stub
// shard, checks the proxy and control endpoints end to end, and shuts it
// down cleanly.
func TestServeSmoke(t *testing.T) {
	backend := httptest.NewServer(api.ServeHop(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			fmt.Fprint(w, `{"status":"ready"}`)
		case "/v1/dbs":
			fmt.Fprint(w, `{"databases":[{"name":"even"}]}`)
		default:
			http.NotFound(w, r)
		}
	})))
	defer backend.Close()

	mapPath := filepath.Join(t.TempDir(), "shardmap.json")
	m := &shard.Map{Version: 1, Groups: []shard.Group{{Name: "g1", Primary: backend.URL}}}
	if err := shard.WriteFile(mapPath, m); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- serve(ctx, ln, routerConfig{
			mapPath:      mapPath,
			poll:         50 * time.Millisecond,
			shardTimeout: 2 * time.Second,
			logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		}, &out)
	}()

	waitReady(t, base)
	var dbs struct {
		Databases []struct{ Name string } `json:"databases"`
	}
	getJSON(t, base+"/v1/dbs", &dbs)
	if len(dbs.Databases) != 1 || dbs.Databases[0].Name != "even" {
		t.Fatalf("dbs through router = %+v", dbs)
	}
	var wire struct {
		Version uint64 `json:"version"`
	}
	getJSON(t, base+"/v1/shardmap", &wire)
	if wire.Version != 1 {
		t.Fatalf("shardmap version = %d, want 1", wire.Version)
	}

	// Hot reload: bump the file, watch the served version follow.
	m2 := m.Clone()
	m2.Version = 2
	if err := shard.WriteFile(mapPath, m2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, base+"/v1/shardmap", &wire)
		if wire.Version == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hot reload never served v2 (still v%d)", wire.Version)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down")
	}
}

// TestServeNoMapStartsUnready: without -map the router must come up and
// answer 503 until a map is installed over HTTP.
func TestServeNoMapStartsUnready(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, routerConfig{
			poll:         time.Second,
			shardTimeout: time.Second,
			logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		}, io.Discard)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusServiceUnavailable {
				break
			}
			t.Fatalf("readyz without a map = %d, want 503", code)
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never answered: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	m := &shard.Map{Version: 1, Groups: []shard.Group{{Name: "g1", Primary: "http://127.0.0.1:1"}}}
	raw, err := shard.EncodeMap(m)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/shardmap", bytes.NewReader(raw))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT shardmap = %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after map install = %d, want 200", resp.StatusCode)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never became ready: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("GET %s: %v in %s", url, err, raw)
	}
}
