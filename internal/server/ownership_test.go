package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/obs"
)

// scribbleBufs makes putBuf overwrite every buffer it takes back, for the
// rest of the test: a view into a request body kept past its handler's
// return reads 'X's at once, not only once a later request happens to land
// in the same buffer.
func scribbleBufs(t *testing.T) {
	put := putBuf
	putBuf = func(bp *[]byte) {
		b := (*bp)[:cap(*bp)]
		for i := range b {
			b[i] = 'X'
		}
		put(bp)
	}
	t.Cleanup(func() { putBuf = put })
}

// keptLog is a slog handler that keeps its records as they came, attribute
// values unformatted: a string that aliases a reused buffer shows changed.
type keptLog struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (h *keptLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *keptLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *keptLog) WithGroup(string) slog.Handler            { return h }

func (h *keptLog) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.recs = append(h.recs, r.Clone())
	h.mu.Unlock()
	return nil
}

// slowQueries returns the query of every slow-query line.
func (h *keptLog) slowQueries() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var qs []string
	for _, r := range h.recs {
		if r.Message != "slow query" {
			continue
		}
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == "query" {
				qs = append(qs, a.Value.String())
			}
			return true
		})
	}
	return qs
}

// TestRoutedAskKeepsNoView: an ask reads its query as a view into its
// pooled body, and nothing it leaves behind keeps that view. Over one hop
// connection a plan-cache hit, a miss and a malformed text are asked, each
// without whitespace (obs.ClipQuery and the shape of a malformed text then
// return it uncopied), then other texts of the same lengths; every buffer
// is overwritten as it is handed back. The flight recorder's entries, the
// per-fingerprint stats rows, the slow-query log lines and the plan cache
// still hold the first texts.
func TestRoutedAskKeepsNoView(t *testing.T) {
	scribbleBufs(t)
	logs := &keptLog{}
	srv := newBareServer(t, Config{CacheSize: -1, SlowQuery: time.Nanosecond, TraceSample: 1,
		Logger: slog.New(logs)}, "even", evenSrc)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := api.NewClient(nil)
	defer c.Close()
	ask := func(q string) {
		t.Helper()
		_, err := c.Do(context.Background(), api.Request{Method: "POST", URL: ts.URL + "/v1/db/even/ask",
			Body: []byte(fmt.Sprintf(`{"query":%q}`, q)), ContentType: api.ContentJSON, Hop: true})
		var refusal *api.Error
		if err != nil && !(errors.As(err, &refusal) && refusal.Code == "parse_error") {
			t.Fatalf("%s: %v", q, err)
		}
	}
	const hit, miss, bad = "?-Even(4).", "?-Even(6).", "?-Even(("
	ask(hit) // compiled here: the ask below is a plan-cache hit
	first, next := []string{hit, miss, bad}, []string{"?-Even(8).", "?-Even(9).", "?-Even)("}
	for _, q := range append(first, next...) {
		ask(q) // the next frames have the first texts' lengths, other bytes
	}

	for _, e := range srv.rec.List(100) {
		if e.Endpoint == "ask" && !slices.Contains(first, e.Query) && !slices.Contains(next, e.Query) {
			t.Errorf("flight-recorder entry holds %q", e.Query)
		}
	}
	for _, q := range first {
		if !slices.ContainsFunc(srv.rec.List(100), func(e *obs.TraceEntry) bool { return e.Query == q }) {
			t.Errorf("no flight-recorder entry holds %q", q)
		}
	}
	shapes := map[string]bool{}
	for _, row := range srv.stats.snapshotDB("even") {
		shapes[row.Shape] = true
		if strings.Contains(row.Shape, "X") {
			t.Errorf("stats row holds shape %q", row.Shape)
		}
	}
	if !shapes[bad] {
		t.Errorf("no stats row holds the malformed text's shape %q: %v", bad, shapes)
	}
	logged := logs.slowQueries()
	for _, q := range first {
		if !slices.Contains(logged, q) {
			t.Errorf("no slow-query line holds %q: %q", q, logged)
		}
	}
	for _, q := range logged {
		if strings.Contains(q, "X") {
			t.Errorf("slow-query line holds %q", q)
		}
	}

	// The plan cache finds each text it stored from a request by its own
	// string: all three are hits.
	e, _ := srv.reg.Get("even")
	before := obs.EngineSink().Counters()
	for _, q := range first {
		e.Prepare(context.Background(), q)
	}
	after := obs.EngineSink().Counters()
	if hits, misses := after["plan_cache_hits_total"]-before["plan_cache_hits_total"],
		after["plan_cache_misses_total"]-before["plan_cache_misses_total"]; hits != 3 || misses != 0 {
		t.Errorf("the texts asked over the hop are %d plan-cache hits and %d misses, want 3 and 0", hits, misses)
	}
}
