// Per-fingerprint query statistics. The fingerprint is the short hash of a
// query's canonical plan shape (the same key the answer cache and plan cache
// use), so α-variants and respellings of one query aggregate into one row.
// Rows live in a top-K table with min-count eviction — heavy hitters
// survive, one-off queries cycle through the "other" aggregate — and the
// first K fingerprints also become funcdbd_query_* metric series, capped so
// scrape cardinality stays bounded no matter what clients send.
package server

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/obs"
)

// DefaultStatsTopK is the default per-process cap on distinct fingerprints
// tracked (table rows and metric series alike).
const DefaultStatsTopK = 64

// Bucket layouts for the non-latency dimensions: derivation depth is a
// small power-of-two ladder (the BDD/FC work motivates depth as a
// first-class per-query dimension); Algorithm Q steps span decades.
var (
	depthBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
	stepBuckets  = []float64{10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}
)

// fpStat is one fingerprint's row: counts plus latency/depth/step
// histograms. When the row is within the metric-series cap, the instruments
// are the registered exposition series themselves, so one observation feeds
// both the JSON table and /metrics.
type fpStat struct {
	db, fp, shape string
	registered    bool // instruments double as funcdbd_query_* series

	// holds counts who uses the row outside mu: an observation still to be
	// recorded, a snapshot still reading it. A row evicted with none left
	// is nobody's, and its standalone instruments are reused, zeroed, for
	// the next fingerprint the table takes in.
	holds atomic.Int32

	cnt, errs *obs.Counter
	lat       *obs.Histogram
	depth     *obs.Histogram
	steps     *obs.Histogram
}

// fpKey names a row.
type fpKey struct{ db, fp string }

// queryStats owns the per-fingerprint table for one process.
type queryStats struct {
	reg  *obs.Registry
	topK int

	mu       sync.Mutex
	table    map[fpKey]*fpStat
	rows     []*fpStat // the table's rows, oldest first
	regCount int       // exposition series granted, ≤ topK
	// evicted aggregates rows pushed out of the table; reported as the
	// "other" row so totals stay honest.
	evictedCount  int64
	evictedErrors int64
	evictions     int64

	// other is the shared exposition series for fingerprints beyond the
	// series cap (label fingerprint="other").
	other *fpStat
}

func newQueryStats(reg *obs.Registry, topK int) *queryStats {
	if topK <= 0 {
		topK = DefaultStatsTopK
	}
	return &queryStats{reg: reg, topK: topK, table: make(map[fpKey]*fpStat, topK), rows: make([]*fpStat, 0, topK)}
}

// instruments builds the row's counter/histogram set, registered on the
// metrics registry when registered is true, standalone otherwise.
func (qs *queryStats) instruments(db, fp string, registered bool) *fpStat {
	st := &fpStat{db: db, fp: fp, registered: registered}
	if registered && qs.reg != nil {
		kv := []string{"db", db, "fingerprint", fp}
		st.cnt = qs.reg.Counter("funcdbd_query_requests_total",
			"Requests per query fingerprint (top-K capped; overflow folds into fingerprint=\"other\").", kv...)
		st.errs = qs.reg.Counter("funcdbd_query_errors_total",
			"Failed requests per query fingerprint.", kv...)
		st.lat = qs.reg.Histogram("funcdbd_query_seconds",
			"Request latency per query fingerprint.", obs.DurationBuckets, kv...)
		st.depth = qs.reg.Histogram("funcdbd_query_depth",
			"Derivation depth reached per query fingerprint.", depthBuckets, kv...)
		st.steps = qs.reg.Histogram("funcdbd_query_algoq_steps",
			"Algorithm Q steps per query fingerprint.", stepBuckets, kv...)
		return st
	}
	st.cnt = &obs.Counter{}
	st.errs = &obs.Counter{}
	st.lat = obs.NewHistogram(obs.DurationBuckets)
	st.depth = obs.NewHistogram(depthBuckets)
	st.steps = obs.NewHistogram(stepBuckets)
	return st
}

// row counts one request (an error, if isErr) on the table row for one
// fingerprint, creating the row or evicting another as needed, and returns
// the row, held for the caller to record on and release. The count is made
// under mu, so that no eviction falls between a row's lookup and its count:
// an evicted row's counts are all in the "other" aggregate.
func (qs *queryStats) row(db, fp, shape string, isErr bool) *fpStat {
	key := fpKey{db, fp}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	st := qs.table[key]
	if st == nil {
		st = qs.admit(key)
		st.shape = shape
	}
	st.count(isErr)
	st.holds.Add(1)
	return st
}

// admit adds a row for key, under mu. On a full table the lightest row,
// the oldest of the lightest, folds into the "other" aggregate, so heavy
// hitters survive table pressure and one-off queries cycle through; if it
// is standalone and nobody holds it, the new row is made of it, its
// instruments zeroed, and costs no allocation.
func (qs *queryStats) admit(key fpKey) *fpStat {
	var st *fpStat
	if len(qs.rows) >= qs.topK {
		at := 0
		for i, r := range qs.rows {
			if r.cnt.Value() < qs.rows[at].cnt.Value() {
				at = i
			}
		}
		min := qs.rows[at]
		qs.evictedCount += min.cnt.Value()
		qs.evictedErrors += min.errs.Value()
		qs.evictions++
		delete(qs.table, fpKey{min.db, min.fp})
		qs.rows = append(qs.rows[:at], qs.rows[at+1:]...)
		if !min.registered && min.holds.Load() == 0 {
			st = min
			st.db, st.fp = key.db, key.fp
			st.cnt.Reset()
			st.errs.Reset()
			st.lat.Reset()
			st.depth.Reset()
			st.steps.Reset()
		}
	}
	if st == nil {
		registered := qs.regCount < qs.topK
		if registered {
			qs.regCount++
		}
		st = qs.instruments(key.db, key.fp, registered)
	}
	qs.rows = append(qs.rows, st)
	qs.table[key] = st
	return st
}

// observe records one finished request for a fingerprint. Negative d, depth
// or steps skip the corresponding histogram (batch items have no individual
// wall-clock or counters).
func (qs *queryStats) observe(db, fp, shape string, d time.Duration, isErr bool, depth, steps int64) {
	if qs == nil || fp == "" {
		return
	}
	st := qs.row(db, fp, shape, isErr)
	st.record(d, depth, steps)
	registered := st.registered
	st.holds.Add(-1)
	if !registered && qs.reg != nil {
		// Beyond the series cap the row's instruments are standalone (JSON
		// only); feed the shared fingerprint="other" series too, so scraped
		// totals still match the table's.
		qs.mu.Lock()
		if qs.other == nil {
			qs.other = qs.instruments("", "other", true)
		}
		other := qs.other
		qs.mu.Unlock()
		other.count(isErr)
		other.record(d, depth, steps)
	}
}

// count counts one request, and one error if isErr.
func (st *fpStat) count(isErr bool) {
	st.cnt.Inc()
	if isErr {
		st.errs.Inc()
	}
}

// record observes one request's latency, depth and steps.
func (st *fpStat) record(d time.Duration, depth, steps int64) {
	if d >= 0 {
		st.lat.Observe(d.Seconds())
	}
	if depth > 0 {
		st.depth.Observe(float64(depth))
	}
	if steps > 0 {
		st.steps.Observe(float64(steps))
	}
}

// histJSON is the wire summary of one histogram dimension.
type histJSON struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

func summarize(h *obs.Histogram) *histJSON {
	_, _, sum, count := h.Snapshot()
	if count == 0 {
		return nil
	}
	return &histJSON{
		Count: count,
		Mean:  sum / float64(count),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
	}
}

// fpStatJSON is one row of the stats endpoint's response.
type fpStatJSON struct {
	Fingerprint string    `json:"fingerprint"`
	Shape       string    `json:"shape,omitempty"`
	Count       int64     `json:"count"`
	Errors      int64     `json:"errors"`
	LatencySecs *histJSON `json:"latency_seconds,omitempty"`
	Depth       *histJSON `json:"depth,omitempty"`
	AlgoQSteps  *histJSON `json:"algoq_steps,omitempty"`
}

// snapshotDB renders the table rows for one database, heaviest first, with
// the evicted aggregate appended as fingerprint "other" when non-empty.
func (qs *queryStats) snapshotDB(db string) []fpStatJSON {
	qs.mu.Lock()
	rows := make([]*fpStat, 0, len(qs.rows))
	for _, st := range qs.rows {
		if st.db == db {
			st.holds.Add(1)
			rows = append(rows, st)
		}
	}
	evCount, evErrs := qs.evictedCount, qs.evictedErrors
	qs.mu.Unlock()

	out := make([]fpStatJSON, 0, len(rows)+1)
	for _, st := range rows {
		out = append(out, fpStatJSON{
			Fingerprint: st.fp,
			Shape:       st.shape,
			Count:       st.cnt.Value(),
			Errors:      st.errs.Value(),
			LatencySecs: summarize(st.lat),
			Depth:       summarize(st.depth),
			AlgoQSteps:  summarize(st.steps),
		})
		st.holds.Add(-1)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].Count > out[i].Count {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if evCount > 0 {
		// Process-wide, not per-db: evicted rows lose their db attribution.
		out = append(out, fpStatJSON{Fingerprint: "other", Count: evCount, Errors: evErrs})
	}
	return out
}

// size reports the current table occupancy and total evictions, for tests.
func (qs *queryStats) size() (rows int, evictions int64) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	return len(qs.rows), qs.evictions
}

// handleStats serves GET /v1/db/{name}/stats: the per-fingerprint table for
// that database plus per-tenant admission wait summaries.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	e, err := s.entry(r)
	if err != nil {
		return err
	}
	api.InfoFrom(r.Context()).DB = e.Name
	resp := map[string]any{
		"db":           e.Name,
		"version":      e.Version,
		"fingerprints": s.stats.snapshotDB(e.Name),
	}
	if adm := s.cfg.Admission; adm != nil {
		resp["admission_wait"] = adm.Waits()
	}
	api.WriteJSON(w, http.StatusOK, resp)
	return nil
}
