package shard

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/registry"
	"funcdb/internal/server"
)

// routedAskBody is an ask whose query is a ground term of the given depth,
// some 9 bytes of text per application: the shape of the benchmark's sub
// family (bench/gen.go), as the server's own byte gate uses.
func routedAskBody(depth int) []byte {
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

// routedCluster is a router in front of one fdbd-style daemon serving
// Subsets(6) as "sub", both in this process, with the daemon's answer cache
// off: every routed ask is a plan-cache hit.
func routedCluster(t *testing.T) (url string) {
	reg := registry.New(core.Options{})
	if _, err := reg.PutProgram("sub", []byte(datagen.SubsetsSrc(6))); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Config{CacheSize: -1, Logger: quiet}).Handler())
	t.Cleanup(ts.Close)
	src := NewSource(&Map{Version: 1, Groups: []Group{{Name: "g", Primary: ts.URL}}})
	t.Cleanup(func() { src.Close() })
	rt := NewRouter(src, Options{Logger: quiet})
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	return rts.URL
}

func routedAsk(t *testing.T, url string, body []byte) string {
	t.Helper()
	resp, err := http.Post(url+"/v1/db/sub/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	return string(raw)
}

// hopSide names the side of the hop an allocation was made on: the daemon's
// when the innermost frame that tells is the daemon's hop, its server or
// what that serves from; the router's when it is the router or the hop
// client. Frames both sides run (the request pipeline, the body reader) do
// not tell, so the walk goes on to their callers.
func hopSide(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		for _, p := range []string{"funcdb/internal/server.", "funcdb/internal/core.", "funcdb/internal/registry.",
			"funcdb/internal/api.(*Hop)", "funcdb/internal/api.(*hopServerConn)", "funcdb/internal/api.(*hopWriter)"} {
			if strings.HasPrefix(f.Function, p) {
				return "shard"
			}
		}
		for _, p := range []string{"funcdb/internal/shard.(*Router)", "funcdb/internal/shard.relay",
			"funcdb/internal/api.(*Client)", "funcdb/internal/api.(*hopConn)"} {
			if strings.HasPrefix(f.Function, p) {
				return "router"
			}
		}
		if !more {
			return ""
		}
	}
}

// allocatedBySide returns the bytes allocated so far on each side of the
// hop, by the memory profile. The profile is published by garbage
// collections, two of them behind; the third makes it current.
func allocatedBySide() map[string]int64 {
	for range 3 {
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	sides := make(map[string]int64)
	for i := range recs {
		sides[hopSide(recs[i].Stack())] += recs[i].AllocBytes
	}
	return sides
}

// TestRoutedAskBytes gates a routed plan-cache hit on each side of the hop,
// by the memory profile of one process running the router, the hop and the
// daemon: the bytes it allocates do not grow with its query text. The router
// reads the body into a pooled buffer and frames it in a pooled encoder; the
// daemon reads the frame into its connection's record and the body into a
// pooled buffer, reads the query in place and keeps the plan cache's own
// string. Before, each side made two copies of the text per request.
func TestRoutedAskBytes(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops a share of what is put back")
	}
	rate := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = rate }()
	runtime.MemProfileRate = 1
	url := routedCluster(t)
	const runs = 200
	// What a deeper text may add per request: the digits of its length in
	// a header or two, and the pooled buffers the profiling collections
	// empty, made again once per run of requests.
	const slack = 768
	var shallow map[string]float64
	for i, d := range []int{0, 64, 512, 1023} {
		body := routedAskBody(d)
		for range 4 {
			routedAsk(t, url, body) // compile, and fill the pools
		}
		before := allocatedBySide()
		for range runs {
			routedAsk(t, url, body)
		}
		after := allocatedBySide()
		perOp := make(map[string]float64)
		for side := range after {
			perOp[side] = float64(after[side]-before[side]) / runs
		}
		t.Logf("depth %4d: body %5d B; per routed hit %5.0f B on the router, %5.0f B on the daemon, %5.0f B elsewhere",
			d, len(body), perOp["router"], perOp["shard"], perOp[""])
		if i == 0 {
			shallow = perOp
			continue
		}
		for _, side := range []string{"router", "shard"} {
			if grew := perOp[side] - shallow[side]; grew > slack {
				t.Errorf("depth %d (body %d B): %s side allocates %.0f B per routed hit, %.0f more than at depth 0",
					d, len(body), side, perOp[side], grew)
			}
		}
	}
}

// TestRoutedBodyHeldUntilForwarded: the router hands a request's pooled
// body back only once its forwarding has returned. Every body is
// overwritten as it comes back, and a routed write and routed asks of
// either verdict still reach the daemon as sent.
func TestRoutedBodyHeldUntilForwarded(t *testing.T) {
	put := putBody
	defer func() { putBody = put }()
	putBody = func(bp *[]byte) {
		b := (*bp)[:cap(*bp)]
		for i := range b {
			b[i] = 'X'
		}
		put(bp)
	}
	url := routedCluster(t)
	req, _ := http.NewRequest(http.MethodPut, url+"/v1/db/even", strings.NewReader("Even(0).\nEven(T) -> Even(T+2).\n"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("routed write: status %d", resp.StatusCode)
	}
	for i := range 8 {
		body := fmt.Sprintf(`{"query":"?- Even(%d)."}`, i)
		resp, err := http.Post(url+"/v1/db/even/ask", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if want := fmt.Sprintf(`"answer":%v`, i%2 == 0); resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), want) {
			t.Fatalf("%s: %d %s, want %s", body, resp.StatusCode, raw, want)
		}
	}
}
