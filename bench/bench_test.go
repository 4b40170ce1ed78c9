package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestSmoke runs every workload for a fraction of a second against the
// in-process stack, and a tiny traced run, asserting that every named metric
// is emitted and finite and that no operation fails.
func TestSmoke(t *testing.T) {
	l := launcher{TmpRoot: t.TempDir()}
	layers := map[string]map[string]float64{}
	for _, w := range workloads {
		res, err := runWorkload(runOpts{
			Workload: w.Name, Seed: 7, Seconds: 0.3, Clients: 2, Setups: 1, Layers: true, Launch: l,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Notes)
		}
		for _, d := range endToEnd {
			if v, ok := res.E2E[d.Name]; !ok || !finite(v) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", w.Name, d.Name, v, ok)
			}
		}
		layers[w.Name] = res.Layers
		for _, name := range outsideLayerMetrics {
			if v, ok := res.Layers[name]; !ok || !finite(v) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", w.Name, name, v, ok)
			}
		}
	}
	// The workloads must separate the layers they are meant to separate.
	sep := func(workload, metric string, ok func(float64) bool, want string) {
		if v := layers[workload][metric]; !ok(v) {
			t.Errorf("%s: %s = %.4f, want %s", workload, metric, v, want)
		}
	}
	sep("ask_hot", "server.cache_hit_ratio", func(v float64) bool { return v > 0.95 }, "> 0.95")
	sep("ask_wide", "server.cache_hit_ratio", func(v float64) bool { return v < 0.05 }, "< 0.05")
	sep("ask_wide", "core.plan_misses_per_op", func(v float64) bool { return v > 0.9 }, "> 0.9")
	sep("ask_hot", "core.plan_misses_per_op", func(v float64) bool { return v < 0.05 }, "< 0.05")
	sep("answers", "core.plan_misses_per_op", func(v float64) bool { return v < 0.05 }, "< 0.05")
	sep("write_mix", "watch.delivered_ratio", func(v float64) bool { return v == 1 }, "1")

	rep, err := runTrace(traceConfig{Seed: 7, AskOps: hotPoolSize, AnswersOps: 6, WriteReps: 1, DaemonOps: 4, TmpRoot: l.TmpRoot})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tracedMetrics {
		if v, ok := rep.Metrics[name]; !ok || !finite(v) {
			t.Errorf("traced metric %s = %v (present %v)", name, v, ok)
		}
	}
	if len(rep.Waterfall) != 7 || len(rep.Spans) == 0 || len(rep.DaemonSpans) == 0 {
		t.Errorf("trace report incomplete: %d waterfall rows, %d spans, %d daemon span names",
			len(rep.Waterfall), len(rep.Spans), len(rep.DaemonSpans))
	}
	// Spans telescope, so the self times sum to the routed ask exactly
	// unless a stage measured faster than the one beneath it (its self time
	// is then clamped to zero); one repeat per text, as here, is too noisy
	// to hold the sum within the 5% a full traced run reports.
	if rep.ChainSumOverRoute < 0.999 || !finite(rep.ChainSumOverRoute) {
		t.Errorf("waterfall self times sum to %.3f of the routed ask, want at least 1", rep.ChainSumOverRoute)
	}
}

// TestMetricTables checks that the two sources of per-layer metrics cover
// the declared list exactly, and that BENCHMARK.json declares what the
// program emits.
func TestMetricTables(t *testing.T) {
	emitted := map[string]bool{}
	for _, n := range outsideLayerMetrics {
		emitted[n] = true
	}
	for _, n := range tracedMetrics {
		if emitted[n] {
			t.Errorf("%s is produced twice", n)
		}
		emitted[n] = true
	}
	for _, d := range perLayer {
		if !emitted[d.Name] {
			t.Errorf("%s is declared but never produced", d.Name)
		}
		delete(emitted, d.Name)
	}
	for n := range emitted {
		t.Errorf("%s is produced but not declared", n)
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
		Why    string  `json:"why"`
	}
	var file struct {
		Workloads []decl `json:"workloads"`
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var wantW, wantE, wantL []decl
	for _, w := range workloads {
		wantW = append(wantW, decl{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		wantE = append(wantE, decl{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		wantL = append(wantL, decl{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	if !reflect.DeepEqual(file.Workloads, wantW) {
		t.Errorf("BENCHMARK.json workloads differ from the program's:\n got %+v\nwant %+v", file.Workloads, wantW)
	}
	if !reflect.DeepEqual(file.EndToEnd, wantE) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n got %+v\nwant %+v", file.EndToEnd, wantE)
	}
	if !reflect.DeepEqual(file.PerLayer, wantL) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n got %+v\nwant %+v", file.PerLayer, wantL)
	}
}

func TestGenerator(t *testing.T) {
	a, b := hotPool(3), hotPool(3)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different hot pools")
	}
	if reflect.DeepEqual(a, hotPool(4)) {
		t.Error("two seeds gave the same hot pool")
	}
	if q1, q2 := wideQuery(3, 12345), wideQuery(3, 12345); q1 != q2 {
		t.Error("the same slot rendered two different queries")
	}
	seen := map[string]bool{}
	for slot := 0; slot < widePoolSize; slot += int(numFamilies) {
		q := wideQuery(3, slot)
		if seen[q.Text] {
			t.Fatalf("cal slot %d repeats %s", slot, q.Text)
		}
		seen[q.Text] = true
	}
	u, n := answersPool()
	if len(u)+len(n) <= 8000 {
		t.Errorf("answers pool has %d pairs, want more than 8000", len(u)+len(n))
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {99, 10}, {10, 1}, {11, 2}, {100, 10}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("percentile of one value = %v", got)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the acceptance gate uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.Median != 5.5 || s.N != 10 || math.Abs(s.Noise-1) > 1e-12 {
		t.Errorf("summarize = %+v, want median 5.5, noise (8.25-2.75)/5.5 = 1", s)
	}
	if z := summarize(nil); z.Median != 0 || z.Noise != 0 || z.N != 0 {
		t.Errorf("summarize(nil) = %+v", z)
	}
}

func TestSelfTimeAndGroupMean(t *testing.T) {
	if got := selfTime(10, 4); got != 6 {
		t.Errorf("selfTime(10, 4) = %v", got)
	}
	if got := selfTime(4, 10); got != 0 {
		t.Errorf("a child slower than its parent leaves self time %v, want 0", got)
	}
	// Two inputs, three repeats each; input 0 has one outlier.
	v := []float64{1, 100, 2, 100, 900, 100}
	if got := groupMean(v, 2); got != (2+100)/2.0 {
		t.Errorf("groupMean = %v, want 51", got)
	}
	if d := disagreement(metricDef{Better: "higher"}, 100, 90); d != 0.1 {
		t.Errorf("disagreement(higher, 100 -> 90) = %v, want 0.1", d)
	}
	if d := disagreement(metricDef{Better: "lower"}, 100, 90); d != -0.1 {
		t.Errorf("disagreement(lower, 100 -> 90) = %v, want -0.1", d)
	}
}
