package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBudgetReachesEveryRead: -max-derivation-depth bounds a watch exactly as
// it bounds /answers, and a policy file does not drop it. A non-uniform query
// whose evaluation derives deeper than the flag allows is refused with 422
// depth_budget_exceeded on both, before a stream opens: with the flag alone,
// and with a policy file, for a tenant it names without max_depth, for a
// tenant it does not name and for a request with no key.
func TestBudgetReachesEveryRead(t *testing.T) {
	policy := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(policy, []byte(`{"default": {"rate": 1000, "burst": 1000},
	  "tenants": {"named": {"rate": 1000, "burst": 1000, "max_qsteps": 1000000}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		keys []string
	}{
		{"flag", []string{"-max-derivation-depth", "2"}, []string{""}},
		{"flag+policy", []string{"-max-derivation-depth", "2", "-admission-config", policy},
			[]string{"named", "stranger", ""}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := spawnDaemon(t, tc.args...)
			defer p.terminate(t)
			const src = `Meets(0, p0).
Next(p0, p1). Next(p1, p2). Next(p2, p3). Next(p3, p4).
Next(p4, p5). Next(p5, p6). Next(p6, p7). Next(p7, p0).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).`
			if code, body := httpJSON(t, "PUT", p.base+"/v1/db/meetings", src); code != http.StatusCreated {
				t.Fatalf("put: %d %v", code, body)
			}
			deep := `{"query":"?- Meets(T+1, p0).","depth":20}`
			for _, key := range tc.keys {
				for _, path := range []string{"/answers", "/watch"} {
					status, code := postCode(t, p.base+"/v1/db/meetings"+path, key, deep)
					if status != http.StatusUnprocessableEntity || code != "depth_budget_exceeded" {
						t.Errorf("%s of %s as %q: %d %q, want 422 depth_budget_exceeded", path, deep, key, status, code)
					}
				}
			}
		})
	}
}

// postCode posts body as tenant key (none when empty) and returns the
// status and, for a refusal, the error envelope's code. A stream that opens
// is closed unread.
func postCode(t *testing.T, url, key, body string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-Api-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, ""
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env.Error.Code
}
