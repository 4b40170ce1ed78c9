// The flight-recorder debug endpoints: GET /debug/traces lists recent
// recorded requests (report-free summaries), GET /debug/traces/{id} fetches
// one full entry with its span tree. Both are registered only when the
// recorder is enabled; fdbrouter scatter-gathers the same endpoints across
// shards so one fleet-wide query finds a trace wherever it was recorded.
package server

import (
	"net/http"

	"funcdb/internal/api"
	"funcdb/internal/obs"
)

// tracesResponse is the wire form of GET /debug/traces.
type tracesResponse struct {
	Traces []*obs.TraceEntry `json:"traces"`
	Count  int               `json:"count"`
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) error {
	entries, _, err := s.rec.Query(r.URL.Query())
	if err != nil {
		return errf(http.StatusBadRequest, "%v", err)
	}
	api.WriteJSON(w, http.StatusOK, tracesResponse{Traces: entries, Count: len(entries)})
	return nil
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	e := s.rec.Get(id)
	if e == nil {
		return errf(http.StatusNotFound, "no recorded trace %q", id)
	}
	api.WriteJSON(w, http.StatusOK, e)
	return nil
}
