package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcdb/internal/admission"
	"funcdb/internal/api"
	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/leakcheck"
	"funcdb/internal/registry"
	"funcdb/internal/server"
)

// The admission storm: a 2-group cluster behind a router serves mixed
// traffic from three well-behaved tenants, first alone (the calm phase) and
// then while one abusive tenant floods it.

const (
	stormWell         = 3
	stormPhase        = 1500 * time.Millisecond
	stormFloodWorkers = 2
	// The additive floor under the p99 gate: wide, because the race detector
	// stretches every latency.
	stormP99Floor = 150 * time.Millisecond
)

// stormTenant is one tenant of the storm: the database it owns, the program
// behind it, and one query of each traffic kind the storm mixes.
type stormTenant struct {
	Name    string // doubles as the tenant's API key
	DB      string
	Src     string
	Ask     string // a ground yes-no query that answers true
	Answers string // an enumeration query
	Watch   string // the query its watch streams subscribe to
	FactFmt string // one %d, producing a ground fact
}

// stormTenants returns n well-behaved tenants rotating through the temporal
// families (calendar, chain), each owning its own database so that what
// happens to a tenant is attributable end to end.
func stormTenants(n int) []stormTenant {
	ts := make([]stormTenant, 0, n)
	for i := 0; i < n; i++ {
		name, db := fmt.Sprintf("tenant%d", i), fmt.Sprintf("t%d", i)
		if i%2 == 0 {
			k := 3 + i%4
			ts = append(ts, stormTenant{
				Name: name, DB: db, Src: datagen.CalendarSrc(k),
				Ask:     fmt.Sprintf("?- Meets(%d, s0).", 2*k),
				Answers: "?- Meets(T+1, s0).", Watch: "?- Meets(T+1, s0).",
				FactFmt: "Meets(%d, s1).",
			})
			continue
		}
		k := 2 + i%5
		ts = append(ts, stormTenant{
			Name: name, DB: db, Src: datagen.ChainSrc(k),
			Ask:     fmt.Sprintf("?- Holds(%d).", 3*k),
			Answers: "?- Holds(T+1).", Watch: "?- Holds(T+1).",
			FactFmt: "Holds(%d).",
		})
	}
	return ts
}

// stormAbuser is the hostile tenant: an exponential subsets database behind
// the API key "mallory". Its enumeration's functional pattern forces a
// recompilation of the enlarged program per request — the expensive shape a
// work budget exists to bound. It watches another query than it enumerates: a
// watch is evaluated by the hub, outside any tenant's budget, and leaves its
// answer specification on the plan, so a watch on the same query would hand
// every later enumeration a finished compile and nothing for the budget to
// kill — and which of the two got there first was a coin toss.
func stormAbuser() stormTenant {
	return stormTenant{
		Name: "mallory", DB: "abuse", Src: datagen.SubsetsSrc(6),
		Ask:     "?- Member(ext(0, e0), e0).",
		Answers: "?- Member(ext(S, e0), e0).",
		Watch:   "?- Member(S, e1).",
	}
}

// stormCounts tallies one traffic class's outcomes.
type stormCounts struct {
	ok, rateLimited, overloaded, budgetKills, watchSheds, other atomic.Int64
}

func (c *stormCounts) record(status int, code string) {
	switch {
	case status >= 200 && status < 300:
		c.ok.Add(1)
	case status == http.StatusTooManyRequests:
		c.rateLimited.Add(1)
	case status == http.StatusServiceUnavailable && code == "overloaded":
		c.overloaded.Add(1)
	case status == http.StatusUnprocessableEntity &&
		(code == "budget_exceeded" || code == "depth_budget_exceeded"):
		c.budgetKills.Add(1)
	default:
		c.other.Add(1)
	}
}

// storm is the cluster under test and the traffic's shared state.
type storm struct {
	base    string // the router
	hc      *api.Client
	tenants []stormTenant
	abuser  stormTenant
	// Appended facts reuse a small window of time points: a large fresh
	// constant would legitimately grow the spec and measure compilation, not
	// admission.
	factSeq atomic.Int64
	closes  []func()
}

// newStorm stands up two daemons, each with its own admission controller
// under the same per-tenant policy, and one router over them. Well-behaved
// tenants are not rate limited: the shared queue and the per-node
// concurrency are their only backpressure.
func newStorm(t *testing.T) *storm {
	t.Helper()
	const groups = 2
	s := &storm{hc: api.NewClient(nil), tenants: stormTenants(stormWell), abuser: stormAbuser()}
	conc := 2 * runtime.GOMAXPROCS(0)
	policy := admission.Config{Tenants: map[string]admission.Limits{
		s.abuser.Name: {Rate: 30, Burst: 20, MaxWatches: 2, MaxQSteps: 300, MaxArenaBytes: 32 << 10},
	}}
	m := &Map{Version: 1, Overrides: map[string]string{}}
	regs := make([]*registry.Registry, groups)
	for g := range regs {
		regs[g] = registry.New(core.Options{})
		ctl := admission.New(admission.Options{
			Concurrency:  conc,
			QueueDepth:   4 * conc,
			QueueTimeout: 250 * time.Millisecond,
			Config:       policy,
		})
		ts := httptest.NewServer(server.New(regs[g], server.Config{
			CacheSize: -1, Admission: ctl,
			// Sheds are the point; a log line for each would drown the output.
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		}).Handler())
		s.closes = append(s.closes, ts.Close, ctl.Close)
		m.Groups = append(m.Groups, Group{Name: fmt.Sprintf("g%d", g), Primary: ts.URL})
	}
	put := func(g int, tn stormTenant) {
		if _, err := regs[g].PutProgram(tn.DB, []byte(tn.Src)); err != nil {
			s.close()
			t.Fatal(err)
		}
		m.Overrides[tn.DB] = m.Groups[g].Name
	}
	for i, tn := range s.tenants {
		put(i%groups, tn)
	}
	put(0, s.abuser)
	src := NewSource(m)
	rt := NewRouter(src, Options{ShardTimeout: 10 * time.Second})
	router := httptest.NewServer(rt)
	s.closes = append(s.closes, src.Close, rt.Close, router.Close)
	s.base = router.URL
	return s
}

func (s *storm) close() {
	for i := len(s.closes) - 1; i >= 0; i-- {
		s.closes[i]()
	}
}

// do issues one request as a tenant and reports how the storm counts it: 200, a daemon's refusal as its status and code,
// anything else as a transport failure.
func (s *storm) do(tn stormTenant, endpoint, body string) (status int, code string, took time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	_, err := s.hc.Do(ctx, api.Request{Method: http.MethodPost,
		URL: s.base + "/v1/db/" + tn.DB + "/" + endpoint, Body: []byte(body),
		ContentType: api.ContentJSON, APIKey: tn.Name})
	status, code = stormResult(err)
	return status, code, time.Since(start)
}

func stormResult(err error) (int, string) {
	var e *api.Error
	switch {
	case err == nil:
		return http.StatusOK, ""
	case errors.As(err, &e):
		return e.Status, e.Code
	}
	return 0, "transport"
}

// watch opens a watch stream as a tenant and drains it until stop closes (wg
// waits for the drain); when the subscription is shed it returns the
// refusal's code.
func (s *storm) watch(tn stormTenant, stop <-chan struct{}, wg *sync.WaitGroup) (accepted bool, code string) {
	resp, err := s.hc.Stream(context.Background(), api.Request{Method: http.MethodPost,
		URL: s.base + "/v1/db/" + tn.DB + "/watch", Body: []byte(fmt.Sprintf(`{"query":%q,"limit":64}`, tn.Watch)),
		ContentType: api.ContentJSON, APIKey: tn.Name})
	if err != nil {
		_, code := stormResult(err)
		return false, code
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-stop
		resp.Body.Close()
	}()
	go func() {
		defer wg.Done()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
		}
	}()
	return true, ""
}

// phase drives every well-behaved tenant for stormPhase with a paced
// ask-heavy mix (5 asks : 2 answers : 1 fact append, plus one held watch
// stream) and returns the latencies of their successful operations. With
// abuse set the abuser floods unpaced alongside: expensive enumerations,
// cheap asks and a pile of watch subscriptions beyond its cap.
func (s *storm) phase(t *testing.T, abuse bool, well, mal *stormCounts) []time.Duration {
	t.Helper()
	stop := make(chan struct{})
	var mu sync.Mutex
	var lat []time.Duration
	var wg sync.WaitGroup
	until := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	for _, tn := range s.tenants {
		if ok, code := s.watch(tn, stop, &wg); !ok {
			t.Errorf("well-behaved watch for %s shed: %s", tn.DB, code)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !until(); i++ {
				endpoint, body := "ask", fmt.Sprintf(`{"query":%q}`, tn.Ask)
				switch i % 8 {
				case 5, 6:
					endpoint, body = "answers", fmt.Sprintf(`{"query":%q,"depth":8,"limit":64}`, tn.Answers)
				case 7:
					fact := fmt.Sprintf(tn.FactFmt, 10+s.factSeq.Add(1)%40)
					endpoint, body = "facts", fmt.Sprintf(`{"facts":%q}`, fact)
				}
				st, code, took := s.do(tn, endpoint, body)
				well.record(st, code)
				if st == http.StatusOK {
					mu.Lock()
					lat = append(lat, took)
					mu.Unlock()
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	if abuse {
		for w := 0; w < stormFloodWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !until(); i++ {
					endpoint, body := "ask", fmt.Sprintf(`{"query":%q}`, s.abuser.Ask)
					if i%3 == 0 {
						endpoint, body = "answers", fmt.Sprintf(`{"query":%q,"depth":10,"limit":10000}`, s.abuser.Answers)
					}
					st, code, _ := s.do(s.abuser, endpoint, body)
					mal.record(st, code)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if ok, code := s.watch(s.abuser, stop, &wg); !ok && code == "rate_limited" {
					mal.watchSheds.Add(1)
				}
			}
		}()
	}
	time.Sleep(stormPhase)
	close(stop)
	wg.Wait()
	return lat
}

// p99 is the nearest-rank 99th percentile of lat.
func p99(lat []time.Duration) time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s)*99 + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}

// TestStormShedsAbuser is the admission-control story end to end. The abuser
// is shed with 429/503 + Retry-After and its expensive enumerations die by
// work budget — typed refusals, never a crash — while the well-behaved
// tenants see nothing but an occasional 429 and keep their latency: their p99
// under abuse stays within max(2 × calm p99, calm p99 + 150 ms). And a
// cluster that has held watch streams, shed a flood and budget-killed
// enumerations leaves no goroutine behind once it is closed.
func TestStormShedsAbuser(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var well, mal stormCounts
	var calm, abused []time.Duration
	func() {
		s := newStorm(t)
		defer s.close()
		// Compile every specification through the router first, so the calm
		// phase measures steady-state latency.
		for _, tn := range s.tenants {
			if st, code, _ := s.do(tn, "ask", fmt.Sprintf(`{"query":%q}`, tn.Ask)); st != http.StatusOK {
				t.Fatalf("warm ask for %s: %d %s", tn.DB, st, code)
			}
		}
		calm = s.phase(t, false, &well, &mal)
		abused = s.phase(t, true, &well, &mal)
	}()
	leakcheck.Settled(t, baseline)
	if len(calm) == 0 || len(abused) == 0 {
		t.Fatalf("well-behaved tenants completed %d operations calm, %d under abuse", len(calm), len(abused))
	}

	calmP99, abuseP99 := p99(calm), p99(abused)
	limit := max(2*calmP99, calmP99+stormP99Floor)
	t.Logf("well-behaved: %d ops calm (p99 %v), %d under abuse (p99 %v, limit %v), %d transient 429s",
		len(calm), calmP99, len(abused), abuseP99, limit, well.rateLimited.Load())
	t.Logf("abuser: %d ok, %d rate_limited, %d overloaded, %d budget kills, %d watch sheds, %d other",
		mal.ok.Load(), mal.rateLimited.Load(), mal.overloaded.Load(), mal.budgetKills.Load(), mal.watchSheds.Load(), mal.other.Load())
	if abuseP99 > limit {
		t.Errorf("well-behaved p99 regressed under abuse: %v > limit %v (calm %v)", abuseP99, limit, calmP99)
	}
	if n := well.other.Load() + well.overloaded.Load() + well.budgetKills.Load(); n > 0 {
		t.Errorf("well-behaved tenants saw %d non-transient errors (only 429s are tolerated)", n)
	}
	if mal.rateLimited.Load()+mal.overloaded.Load() == 0 {
		t.Error("abuser was never shed")
	}
	if mal.budgetKills.Load()+mal.rateLimited.Load() == 0 {
		t.Error("abuser met neither a budget kill nor a rate limit")
	}
	if n := mal.other.Load(); n > 0 {
		t.Errorf("abuser saw %d untyped errors: overload must shed or budget-kill, never crash", n)
	}
}
