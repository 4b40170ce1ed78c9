package server

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"funcdb/internal/obs"
)

// TestStatsEndpoint: repeated queries aggregate by plan-shape fingerprint
// into one row, and the stats endpoint reports counts, errors and the
// latency/depth/step summaries per fingerprint.
func TestStatsEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, Config{CacheSize: -1})
	for i := 0; i < 4; i++ {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/even/ask",
			map[string]any{"query": "?- Even(4)."}); code != http.StatusOK {
			t.Fatalf("ask %d failed", i)
		}
	}
	// One failing query against the same database.
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/even/ask",
		map[string]any{"query": "?- Even("}); code != http.StatusBadRequest {
		t.Fatal("malformed query did not fail")
	}

	code, body := doJSON(t, "GET", ts.URL+"/v1/db/even/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %v", code, body)
	}
	if body["db"] != "even" {
		t.Fatalf("db = %v", body["db"])
	}
	rows, _ := body["fingerprints"].([]any)
	if len(rows) == 0 {
		t.Fatalf("no fingerprint rows: %v", body)
	}
	top, _ := rows[0].(map[string]any)
	if n, _ := top["count"].(float64); n < 4 {
		t.Fatalf("ground asks did not aggregate: top row %v of %d rows", top, len(rows))
	}
	if fp, _ := top["fingerprint"].(string); len(fp) != 16 {
		t.Fatalf("fingerprint = %q", fp)
	}
	if top["latency_seconds"] == nil {
		t.Fatalf("no latency summary: %v", top)
	}
	var errs float64
	for _, raw := range rows {
		row, _ := raw.(map[string]any)
		if e, _ := row["errors"].(float64); e > 0 {
			errs += e
		}
	}
	if errs == 0 {
		t.Fatalf("failed ask not counted: %v", rows)
	}
}

// TestStatsTopKEviction: the fingerprint table is capped at StatsTopK rows
// with min-count eviction; overflow folds into the "other" aggregate so
// totals stay honest.
func TestStatsTopKEviction(t *testing.T) {
	srv, _, ts := newTestServer(t, Config{CacheSize: -1, StatsTopK: 4})
	// A heavy hitter, then a parade of distinct shapes (different variable
	// counts produce different canonical shapes).
	heavy := map[string]any{"query": "?- Even(4)."}
	for i := 0; i < 10; i++ {
		if code, _ := doJSON(t, "POST", ts.URL+"/v1/db/even/ask", heavy); code != http.StatusOK {
			t.Fatal("heavy ask failed")
		}
	}
	shapes := []string{
		"?- Even(T).", "?- Even(T+1).", "?- Even(T+2).", "?- Even(T+3).",
		"?- Even(T+4).", "?- Even(T+5).", "?- Even(T+6).",
	}
	for _, q := range shapes {
		doJSON(t, "POST", ts.URL+"/v1/db/even/answers", map[string]any{"query": q, "depth": 3})
	}

	rows, evictions := srv.stats.size()
	if rows > 4 {
		t.Fatalf("table grew past top-K: %d rows", rows)
	}
	if evictions == 0 {
		t.Fatal("no evictions under table pressure")
	}

	code, body := doJSON(t, "GET", ts.URL+"/v1/db/even/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	rowsJSON, _ := body["fingerprints"].([]any)
	var heavyKept, otherSeen bool
	for _, raw := range rowsJSON {
		row, _ := raw.(map[string]any)
		if n, _ := row["count"].(float64); n >= 10 {
			heavyKept = true
		}
		if row["fingerprint"] == "other" {
			otherSeen = true
		}
	}
	if !heavyKept {
		t.Fatalf("heavy hitter evicted: %v", rowsJSON)
	}
	if !otherSeen {
		t.Fatalf(`no "other" aggregate after evictions: %v`, rowsJSON)
	}
}

// TestQueryStatsConcurrent hammers one queryStats table from several
// goroutines (distinct and shared fingerprints, evictions included) while
// snapshots run; meaningful under -race.
func TestQueryStatsConcurrent(t *testing.T) {
	qs := newQueryStats(nil, 8)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				fp := obs.Fingerprint(fmt.Sprintf("shape-%d", (w*200+i)%16))
				qs.observe("db", fp, "s", time.Millisecond, i%5 == 0, int64(i%32), int64(i))
			}
		}(w)
	}
	for snaps := 0; snaps < 50; snaps++ {
		qs.snapshotDB("db")
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	rows, _ := qs.size()
	if rows == 0 || rows > 8 {
		t.Fatalf("rows = %d", rows)
	}
}
