package server

import (
	"net/http"
	"strings"
	"testing"
)

// TestExportRoundTrip: an exported database PUT to a second daemon answers
// the same queries — the reshard flow's snapshot leg in miniature.
func TestExportRoundTrip(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	// Fold in extended facts so the export has to render the live program,
	// not the original upload.
	st, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/db/even/facts", `{"facts":"Even(101)."}`)
	if st != http.StatusOK {
		t.Fatalf("facts: %d", st)
	}

	for _, name := range []string{"even", "evenspec"} {
		st, body := doJSON(t, http.MethodGet, ts.URL+"/v1/db/"+name+"/export", nil)
		if st != http.StatusOK {
			t.Fatalf("export %s: %d %v", name, st, body)
		}
		src, _ := body["source"].(string)
		if src == "" {
			t.Fatalf("export %s: empty source", name)
		}
		if name == "even" && !strings.Contains(src, "Even(101)") {
			t.Fatalf("export %s lost extended facts:\n%s", name, src)
		}

		_, _, ts2 := newTestServer(t, Config{})
		st, info := doJSON(t, http.MethodPut, ts2.URL+"/v1/db/copy", src)
		if st != http.StatusCreated {
			t.Fatalf("re-import %s: %d %v", name, st, info)
		}
		if got := info["kind"]; got != body["kind"] {
			t.Fatalf("re-import %s changed kind %v -> %v", name, body["kind"], got)
		}
		st, ans := doJSON(t, http.MethodPost, ts2.URL+"/v1/db/copy/ask", `{"query":"?- Even(4)."}`)
		if st != http.StatusOK || ans["answer"] != true {
			t.Fatalf("copy of %s answers %v (%d)", name, ans, st)
		}
	}
}

func TestExportUnknownDB(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	st, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/db/nosuch/export", nil)
	if st != http.StatusNotFound {
		t.Fatalf("export of missing db: %d", st)
	}
}
