package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"funcdb/internal/admission"
	"funcdb/internal/api"
)

// cycleSrc has an 8-person meeting cycle, so Algorithm Q needs ~8 depth
// waves to converge — deep enough for a tight budget to bite.
const cycleSrc = `
Meets(0, p0).
Next(p0, p1). Next(p1, p2). Next(p2, p3). Next(p3, p4).
Next(p4, p5). Next(p5, p6). Next(p6, p7). Next(p7, p0).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`

// depthLimit is the admission a daemon started with -max-derivation-depth n
// runs: every tenant's work budget carries the depth limit n.
func depthLimit(n int64) Config {
	return Config{Admission: admission.New(admission.Options{
		Config: admission.Config{Default: admission.Limits{MaxDepth: n}},
	})}
}

// TestDepthBudget: a query whose evaluation must rebuild the spec graph to
// a depth beyond the work budget's depth limit fails fast with 422 and the
// machine code depth_budget_exceeded; the same query under a generous
// budget succeeds. The query is non-uniform (an application above the
// functional variable), so /answers recomputes the graph per request — the
// path the budget protects.
func TestDepthBudget(t *testing.T) {
	_, reg, ts := newTestServer(t, depthLimit(2))
	if _, err := reg.PutProgram("meetings", []byte(cycleSrc)); err != nil {
		t.Fatal(err)
	}
	req := map[string]any{"query": "?- Meets(T+1, p0).", "depth": 20}
	code, body := doJSON(t, "POST", ts.URL+"/v1/db/meetings/answers", req)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("tight budget: %d %v", code, body)
	}
	errBody, _ := body["error"].(map[string]any)
	if errBody["code"] != "depth_budget_exceeded" {
		t.Fatalf("tight budget error: %v", body)
	}

	_, reg2, ts2 := newTestServer(t, depthLimit(64))
	if _, err := reg2.PutProgram("meetings", []byte(cycleSrc)); err != nil {
		t.Fatal(err)
	}
	code, body = doJSON(t, "POST", ts2.URL+"/v1/db/meetings/answers", req)
	if code != http.StatusOK {
		t.Fatalf("generous budget: %d %v", code, body)
	}
	if n, _ := body["count"].(float64); n == 0 {
		t.Fatalf("generous budget returned no tuples: %v", body)
	}
}

// TestDepthBudgetSparesTheSharedCompile: the derivation-depth budget bounds
// what one query derives beyond the database, not the database's own compile,
// which is as deep as the program is and the same for every reader. A daemon
// whose budget is shallower than cycleSrc's eight waves still answers a
// ground ask and a uniform query, first read or not.
func TestDepthBudgetSparesTheSharedCompile(t *testing.T) {
	_, reg, ts := newTestServer(t, depthLimit(2))
	if _, err := reg.PutProgram("meetings", []byte(cycleSrc)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/ask", `{"query":"?- Meets(3, p3)."}`},
		{"/ask", `{"query":"?- Meets(9, p1)."}`},
		{"/answers", `{"query":"?- Meets(T, p0).","depth":20}`},
	} {
		code, body := doJSON(t, "POST", ts.URL+"/v1/db/meetings"+tc.path, tc.body)
		if code != http.StatusOK {
			t.Errorf("%s %s under a depth budget of 2: %d %v, want 200", tc.path, tc.body, code, body)
		}
	}
}

// statusOf sends one request as tenant (no X-Api-Key when empty) and returns
// its status and error code, without waiting for a 200 stream to end.
func statusOf(t *testing.T, method, url, tenant, body string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(api.HeaderAPIKey, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, errCode(out)
}

// TestBudgetReachesEveryRead: one work budget bounds every read a tenant can
// send, the compile a first read pays included, and the derivation-depth
// limit meets a watch exactly as it meets /answers. Each row reads a fresh
// cycleSrc entry, so no earlier row has paid its compile. Writes carry no
// budget.
func TestBudgetReachesEveryRead(t *testing.T) {
	ctl := admission.New(admission.Options{
		Concurrency: 8,
		Config: admission.Config{
			Default: admission.Limits{MaxDepth: 2},
			Tenants: map[string]admission.Limits{"tiny": {MaxQSteps: 3}},
		},
	})
	_, reg, ts := newTestServer(t, Config{Admission: ctl})
	deep := `{"query":"?- Meets(T+1, p0).","depth":20}`
	for _, tc := range []struct {
		name, tenant, method, path, body string
		status                           int
		code                             string
	}{
		{"ask", "tiny", "POST", "/ask", `{"query":"?- Meets(3, p3)."}`, 422, "budget_exceeded"},
		{"answers", "tiny", "POST", "/answers", `{"query":"?- Meets(T, p0).","depth":20}`, 422, "budget_exceeded"},
		{"batch", "tiny", "POST", "/batch", `{"queries":["?- Meets(3, p3)."]}`, 422, "budget_exceeded"},
		{"explain", "tiny", "GET", "/explain?q=%3F-%20Meets(3%2C%20p3).", "", 422, "budget_exceeded"},
		{"info", "tiny", "GET", "", "", 422, "budget_exceeded"},
		{"watch", "tiny", "POST", "/watch", `{"query":"?- Meets(T, p0).","depth":20}`, 422, "budget_exceeded"},
		{"facts", "tiny", "POST", "/facts", `{"facts":"Next(p7, p1)."}`, 200, ""},
		{"answers depth", "", "POST", "/answers", deep, 422, "depth_budget_exceeded"},
		{"watch depth", "", "POST", "/watch", deep, 422, "depth_budget_exceeded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := "meetings_" + strings.ReplaceAll(tc.name, " ", "_")
			if _, err := reg.PutProgram(db, []byte(cycleSrc)); err != nil {
				t.Fatal(err)
			}
			st, code := statusOf(t, tc.method, ts.URL+"/v1/db/"+db+tc.path, tc.tenant, tc.body)
			if st != tc.status || code != tc.code {
				t.Errorf("%s %s as %q on a fresh entry: %d %q, want %d %q", tc.method, tc.path, tc.tenant, st, code, tc.status, tc.code)
			}
		})
	}
}
