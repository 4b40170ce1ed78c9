// Live-reshard integration test: real store-backed daemons behind a real
// router, a writer hammering the moving database throughout. External test
// package because it wires in internal/server, which the shard package
// itself never imports.
package shard_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/registry"
	"funcdb/internal/repl"
	"funcdb/internal/server"
	"funcdb/internal/shard"
	"funcdb/internal/store"
)

// newStorePrimary runs a WAL-backed fdbd-shaped server: durable registry,
// replication endpoints on, short heartbeat so WAL tails catch up fast.
func newStorePrimary(t *testing.T) (*httptest.Server, *registry.Registry) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Fsync: store.FsyncNever, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(core.Options{})
	if _, err := st.Recover(reg); err != nil {
		t.Fatal(err)
	}
	srv := server.New(reg, server.Config{Repl: st, ReplHeartbeat: 25 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); st.Close() })
	return ts, reg
}

// TestReshardLive moves a database between two real groups while a client
// keeps writing through the router. Every write the client saw succeed
// must be answerable after the move — zero lost writes — and the final
// map must pin the database to the target group.
func TestReshardLive(t *testing.T) {
	tsA, _ := newStorePrimary(t)
	tsB, regB := newStorePrimary(t)
	m := &shard.Map{
		Version: 1,
		VNodes:  8,
		Groups: []shard.Group{
			{Name: "ga", Primary: tsA.URL},
			{Name: "gb", Primary: tsB.URL},
		},
		Overrides: map[string]string{"movedb": "ga"},
	}
	src := shard.NewSource(m)
	t.Cleanup(func() { src.Close() })
	rt := shard.NewRouter(src, shard.Options{ShardTimeout: 5 * time.Second})
	router := httptest.NewServer(rt)
	t.Cleanup(router.Close)

	c := &repl.RemoteClient{Base: router.URL, DB: "movedb"}
	if err := c.Put(context.Background(), []byte("Mark(0).\n")); err != nil {
		t.Fatal(err)
	}

	// Writer: extend facts through the router as fast as the stack allows,
	// before, during and after the reshard. The client retries the
	// freeze's 409s internally; any surfaced error is a test failure.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var committed []int
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.AddFacts(context.Background(), fmt.Sprintf("Mark(%d).", i)); err != nil {
				mu.Lock()
				writeErr = fmt.Errorf("write %d: %w", i, err)
				mu.Unlock()
				return
			}
			mu.Lock()
			committed = append(committed, i)
			mu.Unlock()
		}
	}()

	// Let some pre-move writes land, then move the database live.
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := shard.Reshard(ctx, shard.ReshardOptions{
		DB:          "movedb",
		TargetGroup: "gb",
		Routers:     []string{router.URL},
		TailTimeout: 10 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("reshard: %v", err)
	}
	if res.From != "ga" || res.To != "gb" {
		t.Fatalf("moved %s -> %s, want ga -> gb", res.From, res.To)
	}

	// A few post-move writes must land on the new owner.
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	mu.Lock()
	err, n := writeErr, len(committed)
	mu.Unlock()
	if err != nil {
		t.Fatalf("writer saw a non-retryable failure: %v", err)
	}
	if n < 3 {
		t.Fatalf("only %d writes committed; test did not exercise the move", n)
	}

	// The router's live map pins movedb to gb, unfrozen, two versions on.
	cur := src.Current()
	if cur.Version != m.Version+2 {
		t.Fatalf("final map version %d, want %d", cur.Version, m.Version+2)
	}
	if cur.Overrides["movedb"] != "gb" {
		t.Fatalf("final overrides %v, want movedb -> gb", cur.Overrides)
	}
	if cur.IsFrozen("movedb") {
		t.Fatalf("movedb still frozen after reshard")
	}
	if owner, err := cur.Owner("movedb"); err != nil || owner.Name != "gb" {
		t.Fatalf("owner = %v, %v; want gb", owner, err)
	}

	// The target group really holds the database...
	if _, ok := regB.Get("movedb"); !ok {
		t.Fatalf("target registry has no movedb after reshard")
	}
	// ...and every committed write answers true through the router. This
	// is the zero-lost-writes check: a fact acked before, during or after
	// the move must be derivable from the new owner.
	mu.Lock()
	marks := append([]int(nil), committed...)
	mu.Unlock()
	for _, i := range marks {
		yes, _, err := c.Ask(ctx, fmt.Sprintf("?- Mark(%d).", i))
		if err != nil {
			t.Fatalf("post-move ask Mark(%d): %v", i, err)
		}
		if !yes {
			t.Fatalf("lost write: Mark(%d) acked but not derivable after reshard", i)
		}
	}
	t.Logf("reshard under load: %d writes, %d WAL mutations replayed, watermark %d",
		n, res.Replayed, res.Watermark)
}

// TestReshardNoStaleAnswer is the staleness regression for the
// version-keyed answer caches across a reshard flip: a verdict cached on
// the old owner before the move must not be served for the same query once
// a post-move write on the new owner makes the answer flip.
func TestReshardNoStaleAnswer(t *testing.T) {
	tsA, _ := newStorePrimary(t)
	tsB, _ := newStorePrimary(t)
	m := &shard.Map{
		Version: 1,
		VNodes:  8,
		Groups: []shard.Group{
			{Name: "ga", Primary: tsA.URL},
			{Name: "gb", Primary: tsB.URL},
		},
		Overrides: map[string]string{"flipdb": "ga"},
	}
	src := shard.NewSource(m)
	t.Cleanup(func() { src.Close() })
	router := httptest.NewServer(shard.NewRouter(src, shard.Options{ShardTimeout: 5 * time.Second}))
	t.Cleanup(router.Close)

	c := &repl.RemoteClient{Base: router.URL, DB: "flipdb"}
	if err := c.Put(context.Background(), []byte("Flip(0).\n")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Cache a negative verdict on the old owner — twice, so the second ask
	// is served from ga's shape-keyed response cache.
	const q = "?- Flip(1)."
	for i := 0; i < 2; i++ {
		yes, _, err := c.Ask(ctx, q)
		if err != nil {
			t.Fatalf("pre-move ask: %v", err)
		}
		if yes {
			t.Fatalf("Flip(1) true before it was written")
		}
	}

	if _, err := shard.Reshard(ctx, shard.ReshardOptions{
		DB:          "flipdb",
		TargetGroup: "gb",
		Routers:     []string{router.URL},
		TailTimeout: 10 * time.Second,
		Logf:        t.Logf,
	}); err != nil {
		t.Fatalf("reshard: %v", err)
	}

	// The write that flips the answer lands on the new owner.
	if _, err := c.AddFacts(context.Background(), "Flip(1)."); err != nil {
		t.Fatalf("post-move write: %v", err)
	}
	// The cached false from before the flip must not survive — neither for
	// the exact spelling nor for a respelling sharing its canonical shape.
	for _, spelling := range []string{q, "?-  Flip( 1 )."} {
		yes, _, err := c.Ask(ctx, spelling)
		if err != nil {
			t.Fatalf("post-move ask %q: %v", spelling, err)
		}
		if !yes {
			t.Fatalf("stale answer served for %q after reshard flip", spelling)
		}
	}
}

// TestReshardRejectsBadTargets covers the argument-validation surface
// without standing up a topology.
func TestReshardRejectsBadTargets(t *testing.T) {
	ctx := context.Background()
	if _, err := shard.Reshard(ctx, shard.ReshardOptions{DB: "x"}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := shard.Reshard(ctx, shard.ReshardOptions{DB: "x", TargetGroup: "g"}); err == nil {
		t.Fatal("missing routers accepted")
	}

	tsA, _ := newStorePrimary(t)
	m := &shard.Map{Version: 1, Groups: []shard.Group{{Name: "ga", Primary: tsA.URL}}}
	src := shard.NewSource(m)
	t.Cleanup(func() { src.Close() })
	router := httptest.NewServer(shard.NewRouter(src, shard.Options{}))
	t.Cleanup(router.Close)

	_, err := shard.Reshard(ctx, shard.ReshardOptions{
		DB: "anydb", TargetGroup: "nope", Routers: []string{router.URL}})
	if err == nil || !strings.Contains(err.Error(), "no group") {
		t.Fatalf("unknown group error = %v", err)
	}
	_, err = shard.Reshard(ctx, shard.ReshardOptions{
		DB: "anydb", TargetGroup: "ga", Routers: []string{router.URL}})
	if err == nil || !strings.Contains(err.Error(), "already lives") {
		t.Fatalf("same-group error = %v", err)
	}
}
