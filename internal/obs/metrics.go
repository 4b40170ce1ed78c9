package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format (version 0.0.4). Registration takes a lock; the hot
// paths — Counter.Add, Gauge.Set, Histogram.Observe — are purely atomic.
//
// Families are identified by metric name. Registering the same name twice
// with a different type or help string panics (a programming error);
// registering the same name with a different label set adds a sibling
// series to the existing family.
type Registry struct {
	mu      sync.RWMutex
	fams    map[string]*family
	sources []source
}

// family is one named metric with one or more labeled series.
type family struct {
	name, help, typ string
	buckets         []float64 // histograms only
	series          []*series
}

type series struct {
	labels string // rendered {k="v",...} suffix, "" for unlabeled
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// source is a callback contributing a whole set of families at scrape time,
// used for gauge maps whose keys are not known at registration (store and
// replication gauges, engine counters).
type source struct {
	prefix string
	typ    string
	help   string
	fn     func() map[string]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a caller bug but are not checked on the
// hot path.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is an explicit-bucket histogram. Observe is lock-free: one
// atomic add into the right bucket, one CAS loop for the float sum, one
// atomic add for the count.
type Histogram struct {
	bounds  []float64      // upper bounds, ascending, excluding +Inf
	counts  []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// NewHistogram builds a standalone histogram that is not registered with any
// registry — used by the per-fingerprint stats table, whose series are
// rendered as JSON rather than scraped.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Snapshot returns the histogram's bounds and a consistent-enough copy of
// its per-bucket counts, sum and count for quantile estimation. Buckets are
// non-cumulative (counts[i] pairs with bounds[i]; the last is +Inf).
func (h *Histogram) Snapshot() (bounds []float64, counts []int64, sum float64, count int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts, h.Sum(), h.count.Load()
}

// Quantile estimates the q-quantile (0 < q < 1) of the observations by
// linear interpolation within the winning bucket. The +Inf bucket clamps to
// the largest finite bound. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	bounds, counts, _, total := h.Snapshot()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(bounds) { // +Inf bucket
				if len(bounds) == 0 {
					return 0
				}
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := 1.0
			if c > 0 {
				frac = (rank - float64(cum-c)) / float64(c)
			}
			return lo + (bounds[i]-lo)*frac
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DurationBuckets is the default latency bucket layout, in seconds, from
// 100µs to 10s.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter registers (or finds) a counter series. kv is an alternating list
// of label keys and values.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	return r.register(name, help, "counter", nil, kv, func(s *series) {
		if s.c == nil {
			s.c = &Counter{}
		}
	}).c
}

// Gauge registers (or finds) a settable gauge series.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	return r.register(name, help, "gauge", nil, kv, func(s *series) {
		if s.g == nil {
			s.g = &Gauge{}
		}
	}).g
}

// GaugeFunc registers a gauge series whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, kv ...string) {
	r.register(name, help, "gauge", nil, kv, func(s *series) { s.gf = fn })
}

// Histogram registers (or finds) an explicit-bucket histogram series.
// Bounds must be ascending and must not include +Inf.
func (r *Registry) Histogram(name, help string, bounds []float64, kv ...string) *Histogram {
	return r.register(name, help, "histogram", bounds, kv, func(s *series) {
		if s.h == nil {
			s.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		}
	}).h
}

// Source registers a scrape-time callback that contributes one family per
// map key, named prefix+key, all with the given type ("gauge" or "counter")
// and help string. Keys that collide with a statically registered family or
// with an earlier source are skipped at render time so the exposition never
// contains duplicate names.
func (r *Registry) Source(prefix, typ, help string, fn func() map[string]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, source{prefix: prefix, typ: typ, help: help, fn: fn})
}

// register finds or adds the series and runs init on it, all under the
// registry lock: a series' instrument is set before a concurrent scrape can
// see the series, and never changes afterwards.
func (r *Registry) register(name, help, typ string, buckets []float64, kv []string, init func(*series)) *series {
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list for " + name)
	}
	labels := renderLabels(kv)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, buckets: buckets}
		r.fams[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	for _, s := range f.series {
		if s.labels == labels {
			init(s)
			return s
		}
	}
	s := &series{labels: labels}
	init(s)
	f.series = append(f.series, s)
	return s
}

// renderLabels builds the {k="v",...} suffix with keys sorted, so the same
// label set always renders (and deduplicates) identically.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// mergeLabels splices an extra label (le for histogram buckets) into a
// rendered label suffix.
func mergeLabels(labels, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WriteText renders the registry in Prometheus text exposition format:
// families sorted by name, each preceded by its # HELP and # TYPE lines,
// with no duplicate family names.
func (r *Registry) WriteText(w io.Writer) error {
	fams, srcs := r.snapshot()
	seen := make(map[string]bool, len(fams))
	all := make([]*family, 0, len(fams)+16)
	for _, f := range fams {
		seen[f.name] = true
		all = append(all, f)
	}
	// Materialize source callbacks into synthetic single-series families.
	for _, src := range srcs {
		vals := src.fn()
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			name := src.prefix + k
			if seen[name] {
				continue
			}
			seen[name] = true
			v := vals[k]
			g := &Gauge{}
			g.Set(v)
			sf := &family{name: name, help: src.help, typ: src.typ}
			if src.typ == "counter" {
				c := &Counter{}
				c.Add(v)
				sf.series = []*series{{c: c}}
			} else {
				sf.series = []*series{{g: g}}
			}
			all = append(all, sf)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range all {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			writeSeries(bw, f, s)
		}
	}
	return bw.Flush()
}

func writeSeries(w *bufio.Writer, f *family, s *series) {
	switch {
	case s.c != nil:
		fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value())
	case s.gf != nil:
		fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.gf()))
	case s.g != nil:
		fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.g.Value())
	case s.h != nil:
		var cum int64
		for i, b := range s.h.bounds {
			cum += s.h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLabels(s.labels, "le", formatFloat(b)), cum)
		}
		cum += s.h.counts[len(s.h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, mergeLabels(s.labels, "le", "+Inf"), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatFloat(s.h.Sum()))
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, s.h.Count())
	}
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// snapshot copies the family and source lists under the read lock so
// rendering never races with registration.
func (r *Registry) snapshot() ([]*family, []source) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		// A copy with its own series list: registration appends to the
		// original while the scrape renders.
		c := *f
		c.series = append([]*series(nil), f.series...)
		fams = append(fams, &c)
	}
	srcs := make([]source, len(r.sources))
	copy(srcs, r.sources)
	return fams, srcs
}
