package server

import (
	"net/http"
	"testing"
)

// cycleSrc has an 8-person meeting cycle, so Algorithm Q needs ~8 depth
// waves to converge — deep enough for a tight budget to bite.
const cycleSrc = `
Meets(0, p0).
Next(p0, p1). Next(p1, p2). Next(p2, p3). Next(p3, p4).
Next(p4, p5). Next(p5, p6). Next(p6, p7). Next(p7, p0).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`

// TestDepthBudget: a query whose evaluation must rebuild the spec graph to
// a depth beyond Config.MaxDerivationDepth fails fast with 422 and the
// machine code depth_budget_exceeded; the same query under a generous
// budget succeeds. The query is non-uniform (an application above the
// functional variable), so /answers recomputes the graph per request — the
// path the budget protects.
func TestDepthBudget(t *testing.T) {
	_, reg, ts := newTestServer(t, Config{MaxDerivationDepth: 2})
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

	_, reg2, ts2 := newTestServer(t, Config{MaxDerivationDepth: 64})
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
	_, reg, ts := newTestServer(t, Config{MaxDerivationDepth: 2})
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
