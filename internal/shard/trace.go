// Router-side distributed tracing and flight-recorder endpoints. Every
// proxied request runs under a trace that adopts the client's traceparent
// (or mints a fresh ID), each forward attempt is a span whose ID rides the
// outgoing traceparent header, and traced responses come back with the
// shard's span tree grafted under the forward span — so fdbq -trace through
// the router renders one merged router→shard→replica tree. The router also
// keeps its own flight recorder and scatter-gathers GET /debug/traces across
// every endpoint of every group (the recorder is per-process, so one healthy
// endpoint per group would miss entries recorded elsewhere).
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"

	"funcdb/internal/api"
	"funcdb/internal/obs"
)

// wantsTrace reports whether a request body opted into tracing ("trace":
// true), which both forces recorder retention and triggers response-tree
// merging.
func wantsTrace(body []byte) bool {
	if len(body) == 0 || !bytes.Contains(body, []byte(`"trace"`)) {
		return false
	}
	var req struct {
		Trace bool `json:"trace"`
	}
	return json.Unmarshal(body, &req) == nil && req.Trace
}

// mergeTraceBody grafts the shard's span tree (the "trace" key of raw) into
// the router trace under span underID and returns the response with the
// merged report swapped in. ok=false means raw should be relayed untouched.
func mergeTraceBody(tr *obs.Trace, underID int, raw []byte) ([]byte, bool) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, false
	}
	childRaw, found := m["trace"]
	if !found {
		return nil, false
	}
	child := &obs.Report{}
	if err := json.Unmarshal(childRaw, child); err != nil {
		return nil, false
	}
	rep := tr.Report()
	obs.GraftReport(rep, underID, child)
	merged, err := json.Marshal(rep)
	if err != nil {
		return nil, false
	}
	m["trace"] = merged
	out, err := json.Marshal(m)
	if err != nil {
		return nil, false
	}
	return out, true
}

// ---- /debug/traces: local recorder + fleet scatter-gather ----

// askAll GETs path from every endpoint of every group — primaries and
// replicas alike, because each process records its own ring — each within
// the per-shard deadline, and hands the answers to each one at a time. node
// names the endpoint the way merged entries do.
func (rt *Router) askAll(r *http.Request, path string, each func(node string, raw []byte, err error)) {
	m := rt.src.Current()
	if m == nil {
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for gi := range m.Groups {
		g := &m.Groups[gi]
		for i, ep := range g.Endpoints() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(r.Context(), rt.timeout)
				defer cancel()
				raw, err := rt.client.Do(ctx, call(r, m, http.MethodGet, g.urls[i]+path, nil))
				mu.Lock()
				defer mu.Unlock()
				each(g.Name+" "+ep, raw, err)
			}()
		}
	}
	wg.Wait()
}

// handleTraceList merges the router's recorder with GET /debug/traces from
// every endpoint of every group, newest first. Endpoints that fail inside
// the per-shard deadline are reported in the partial-failure envelope.
func (rt *Router) handleTraceList(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	entries, n, err := rt.rec.Query(q)
	if err != nil {
		return api.Errorf(http.StatusBadRequest, "bad_request", "%v", err)
	}
	path := "/debug/traces?n=" + strconv.Itoa(n)
	for _, p := range obs.TraceFilterParams {
		if v := q.Get(p); v != "" {
			path += "&" + p + "=" + url.QueryEscape(v)
		}
	}
	var failed []shardFailure
	rt.askAll(r, path, func(node string, raw []byte, err error) {
		var body struct {
			Traces []*obs.TraceEntry `json:"traces"`
		}
		if err == nil {
			err = json.Unmarshal(raw, &body)
		}
		if err != nil {
			failed = append(failed, shardFailure{Group: node, Error: api.Detail(err)})
			return
		}
		for _, e := range body.Traces {
			if e.Node == "" {
				e.Node = node
			}
		}
		entries = append(entries, body.Traces...)
	})

	sort.Slice(entries, func(i, j int) bool { return entries[i].TimeUnixMS > entries[j].TimeUnixMS })
	if len(entries) > n {
		entries = entries[:n]
	}
	resp := map[string]any{"traces": entries, "count": len(entries)}
	if entries == nil {
		resp["traces"] = []*obs.TraceEntry{}
	}
	if len(failed) > 0 {
		sort.Slice(failed, func(i, j int) bool { return failed[i].Group < failed[j].Group })
		resp["partial"] = true
		resp["failed"] = failed
	}
	api.WriteJSON(w, http.StatusOK, resp)
	return nil
}

// handleTraceGet finds one recorded trace by ID: the router's own ring
// first, then every endpoint of every group in parallel. When several
// processes recorded the same trace ID the most recent entry wins.
func (rt *Router) handleTraceGet(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	best := rt.rec.Get(id)
	rt.askAll(r, "/debug/traces/"+url.PathEscape(id), func(node string, raw []byte, err error) {
		e := &obs.TraceEntry{}
		if err != nil || json.Unmarshal(raw, e) != nil || e.ID == "" {
			return // a miss on one process is not an error
		}
		if e.Node == "" {
			e.Node = node
		}
		if best == nil || e.TimeUnixMS > best.TimeUnixMS {
			best = e
		}
	})
	if best == nil {
		return api.Errorf(http.StatusNotFound, "not_found", "no recorded trace %q", id)
	}
	api.WriteJSON(w, http.StatusOK, best)
	return nil
}
