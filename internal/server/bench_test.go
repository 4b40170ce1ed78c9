package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/registry"
)

// benchAsk drives the full handler path (mux, instrument, admission-less
// ask) with answer caching off, so every request pays a real evaluation.
// The recorder-off/on pair prices the always-on flight recorder; the ledger's
// row for it is trace.overhead_share (bench/).
func benchAsk(b *testing.B, traceBuffer int) {
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("even", []byte("Even(0).\nEven(T) -> Even(T+2).\n")); err != nil {
		b.Fatal(err)
	}
	s := New(reg, Config{CacheSize: -1, TraceBuffer: traceBuffer})
	h := s.Handler()
	bodies := make([]string, 64)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"query":"?- Even(%d)."}`, (i*2)%1000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/db/even/ask", strings.NewReader(bodies[i%64]))
		h.ServeHTTP(w, r)
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

func BenchmarkAskRecorderOff(b *testing.B) { benchAsk(b, -1) }
func BenchmarkAskRecorderOn(b *testing.B)  { benchAsk(b, 0) }

// deepAsk is an ask body whose query is a ground term of the given depth:
// some 9 bytes of text per application, the shape of the benchmark's sub
// family (bench/gen.go).
func deepAsk(depth int) []byte {
	var b strings.Builder
	b.WriteString(`{"query":"?- Member(`)
	b.WriteString(strings.Repeat("ext(", depth))
	b.WriteByte('0')
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, ", e%d)", i%6)
	}
	b.WriteString(`, e3)."}`)
	return []byte(b.String())
}

var askDepths = []int{0, 64, 512, 1023}

// newAskHandler serves Subsets(6) as "sub" with the answer cache on (every
// repeat is an LRU hit) or off (every request walks the DFA; the plan cache
// still hits, as it does for the benchmark's ask_hot).
func newAskHandler(tb testing.TB, cached bool) http.Handler {
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("sub", []byte(datagen.SubsetsSrc(6))); err != nil {
		tb.Fatal(err)
	}
	cfg := Config{}
	if !cached {
		cfg.CacheSize = -1
	}
	return New(reg, cfg).Handler()
}

// serveAsk calls the handler as net/http would, without a socket. The
// request is built by http.NewRequest: httptest.NewRequest parses one through
// a fresh 4 KB bufio.Reader, which would drown what the handler allocates.
func serveAsk(tb testing.TB, h http.Handler, body []byte) {
	w := httptest.NewRecorder()
	r, err := http.NewRequest("POST", "/v1/db/sub/ask", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkServeAsk drives Server.Handler() in process, the stage the
// benchmark's waterfall calls Handler.ServeHTTP: what a ground ask costs
// above Registry.Get+Entry.Ask, by term depth.
func BenchmarkServeAsk(b *testing.B) {
	for _, mode := range []string{"hit", "miss"} {
		h := newAskHandler(b, mode == "hit")
		for _, d := range askDepths {
			body := deepAsk(d)
			b.Run(fmt.Sprintf("%s/d%d", mode, d), func(b *testing.B) {
				serveAsk(b, h, body)
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					serveAsk(b, h, body)
				}
			})
		}
	}
}

// askHitBytes bounds the bytes one cached ask allocates, whatever its text:
// the request, the response recorder and the per-request records, some
// 2.9 KB. The query is read as a view into the pooled body and the plan
// cache's own string is what the request keeps, so no copy of the text is
// made; before, the decoded query string was one, and the bound was twice
// the body plus 4 KB.
const askHitBytes = 3584

// TestAskHitAllocs gates the cached ask: neither the number of allocations
// nor the bytes allocated grow with the term's depth.
func TestAskHitAllocs(t *testing.T) {
	h := newAskHandler(t, true)
	const runs = 200
	var shallow float64
	for i, d := range askDepths {
		body := deepAsk(d)
		serveAsk(t, h, body) // fill the plan cache and the LRU
		allocs := testing.AllocsPerRun(runs, func() { serveAsk(t, h, body) })
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for j := 0; j < runs; j++ {
			serveAsk(t, h, body)
		}
		runtime.ReadMemStats(&m1)
		perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		t.Logf("depth %4d: body %5d B, %.0f allocs, %.0f B per cached ask", d, len(body), allocs, perOp)
		if i == 0 {
			shallow = allocs
		} else if allocs > shallow+1 {
			t.Errorf("depth %d: %.0f allocations per cached ask, %.0f at depth 0", d, allocs, shallow)
		}
		limit := float64(askHitBytes)
		if raceBuild {
			limit = float64(2*len(body) + 4096) // the bound from before the view
		}
		if perOp > limit {
			t.Errorf("depth %d: %.0f bytes per cached ask, limit %.0f (body %d)", d, perOp, limit, len(body))
		}
	}
}
