package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"funcdb/internal/admission"
	"funcdb/internal/api"
)

// doJSONAs is doJSON with an API key header, returning the response headers
// too so tests can assert Retry-After.
func doJSONAs(t testing.TB, method, url, apiKey string, body string) (int, http.Header, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if apiKey != "" {
		req.Header.Set(api.HeaderAPIKey, apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	if len(raw) > 0 {
		json.Unmarshal(raw, &out)
	}
	return resp.StatusCode, resp.Header, out
}

// TestAdmissionRateLimit: a tenant over its bucket gets the 429
// rate_limited envelope with a Retry-After header, while other tenants are
// untouched; waiting out the refill admits it again.
func TestAdmissionRateLimit(t *testing.T) {
	ctl := admission.New(admission.Options{
		Concurrency: 8,
		Config: admission.Config{Tenants: map[string]admission.Limits{
			"abuser": {Rate: 0.001, Burst: 2}, // 2 asks, then shed for ages
		}},
	})
	_, _, ts := newTestServer(t, Config{Admission: ctl})
	ask := `{"query":"?- Even(4)."}`

	for i := 0; i < 2; i++ {
		st, _, body := doJSONAs(t, "POST", ts.URL+"/v1/db/even/ask", "abuser", ask)
		if st != http.StatusOK {
			t.Fatalf("ask %d: %d %v", i, st, body)
		}
	}
	st, hdr, body := doJSONAs(t, "POST", ts.URL+"/v1/db/even/ask", "abuser", ask)
	if st != http.StatusTooManyRequests {
		t.Fatalf("over budget: %d %v", st, body)
	}
	if errCode(body) != "rate_limited" {
		t.Fatalf("code = %v", body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another tenant (and the anonymous default) is unaffected.
	st, _, body = doJSONAs(t, "POST", ts.URL+"/v1/db/even/ask", "good", ask)
	if st != http.StatusOK {
		t.Fatalf("other tenant: %d %v", st, body)
	}
	st, _, body = doJSONAs(t, "POST", ts.URL+"/v1/db/even/ask", "", ask)
	if st != http.StatusOK {
		t.Fatalf("anonymous: %d %v", st, body)
	}
}

// TestAdmissionBudgetExceeded: a tenant whose policy bounds Algorithm Q
// steps sees its deep query die with the typed budget_exceeded envelope,
// while an unbounded tenant's identical query succeeds.
func TestAdmissionBudgetExceeded(t *testing.T) {
	ctl := admission.New(admission.Options{
		Concurrency: 8,
		Config: admission.Config{Tenants: map[string]admission.Limits{
			"tiny": {MaxQSteps: 3},
		}},
	})
	_, reg, ts := newTestServer(t, Config{Admission: ctl})
	if _, err := reg.PutProgram("meetings", []byte(cycleSrc)); err != nil {
		t.Fatal(err)
	}
	req := `{"query":"?- Meets(T+1, p0).","depth":20}`

	st, _, body := doJSONAs(t, "POST", ts.URL+"/v1/db/meetings/answers", "tiny", req)
	if st != http.StatusUnprocessableEntity {
		t.Fatalf("tiny budget: %d %v", st, body)
	}
	if errCode(body) != "budget_exceeded" {
		t.Fatalf("code = %v", body)
	}
	st, _, body = doJSONAs(t, "POST", ts.URL+"/v1/db/meetings/answers", "big", req)
	if st != http.StatusOK {
		t.Fatalf("unbounded tenant: %d %v", st, body)
	}

	// The kill is visible on /metrics.
	st, _, _ = doJSONAs(t, "GET", ts.URL+"/metrics", "", "")
	if st != http.StatusOK {
		t.Fatalf("metrics: %d", st)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(raw), "funcdbd_admission_budget_kills_total 1") {
		t.Fatalf("budget kill not counted:\n%s", raw)
	}
}

// TestAdmissionWatchTenantCap: the per-tenant watch cap sheds the
// (cap+1)-th stream with the 429 rate_limited envelope and Retry-After,
// leaving other tenants free to subscribe.
func TestAdmissionWatchTenantCap(t *testing.T) {
	ctl := admission.New(admission.Options{
		Concurrency: 8,
		Config: admission.Config{Tenants: map[string]admission.Limits{
			"capped": {MaxWatches: 1},
		}},
	})
	_, _, ts := newTestServer(t, Config{Admission: ctl})
	watchBody := `{"query":"?- Even(X)."}`

	// First stream holds; use a raw request so the body stays open.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/db/even/watch", strings.NewReader(watchBody))
	req.Header.Set(api.HeaderAPIKey, "capped")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("first watch: %d %s", resp.StatusCode, raw)
	}

	st, hdr, body := doJSONAs(t, "POST", ts.URL+"/v1/db/even/watch", "capped", watchBody)
	if st != http.StatusTooManyRequests || errCode(body) != "rate_limited" {
		t.Fatalf("second watch: %d %v", st, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("watch shed without Retry-After")
	}

	// A different tenant still subscribes fine.
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/db/even/watch", strings.NewReader(watchBody))
	req2.Header.Set(api.HeaderAPIKey, "other")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("other tenant watch: %d", resp2.StatusCode)
	}
}
