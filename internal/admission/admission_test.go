package admission

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"funcdb/internal/obs"
)

// fakeClock is a manually advanced clock shared by a test and its
// controller.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBucketRefillMath(t *testing.T) {
	b := bucket{rate: 10, burst: 20}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// Starts full: 20 tokens cover cost 20 exactly.
	ok, _ := b.take(now, 20)
	if !ok {
		t.Fatal("full bucket refused its burst")
	}
	// Empty now; cost 5 needs 0.5s of refill → Retry-After rounds up to 1s.
	ok, retry := b.take(now, 5)
	if ok {
		t.Fatal("empty bucket admitted a request")
	}
	if retry != time.Second {
		t.Fatalf("retry = %v, want 1s (rounded up)", retry)
	}
	// After 1.5s the bucket holds 15 tokens: cost 15 passes, cost 1 fails.
	now = now.Add(1500 * time.Millisecond)
	ok, _ = b.take(now, 15)
	if !ok {
		t.Fatal("refilled bucket refused cost within its level")
	}
	ok, retry = b.take(now, 30)
	if ok {
		t.Fatal("bucket admitted more than its burst")
	}
	// 30 tokens at 10/s = 3s.
	if retry != 3*time.Second {
		t.Fatalf("retry = %v, want 3s", retry)
	}
	// Refill never exceeds burst.
	now = now.Add(time.Hour)
	if lvl := b.level(now); lvl != 20 {
		t.Fatalf("level after an hour = %v, want burst 20", lvl)
	}

	// A zero-rate bucket never refills: permanent refusal once drained.
	z := bucket{rate: 0, burst: 2}
	if ok, _ := z.take(now, 2); !ok {
		t.Fatal("zero-rate bucket refused its initial burst")
	}
	if ok, retry := z.take(now.Add(time.Hour), 1); ok || retry < time.Hour {
		t.Fatalf("zero-rate bucket: ok=%v retry=%v, want refusal with long retry", ok, retry)
	}
}

func TestAdmitRateLimitAndRecovery(t *testing.T) {
	clk := newFakeClock()
	c := New(Options{
		Concurrency: 4,
		Config: Config{Tenants: map[string]Limits{
			"slow": {Rate: 1, Burst: 2},
		}},
		Now: clk.now,
	})
	ctx := context.Background()

	// Burst of 2 admits 2; the third is rate-limited with Retry-After.
	for i := 0; i < 2; i++ {
		release, err := c.Admit(ctx, "slow", 1)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		release()
	}
	_, err := c.Admit(ctx, "slow", 1)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Code != CodeRateLimited || shed.RetryAfter <= 0 {
		t.Fatalf("shed = %+v, want rate_limited with positive Retry-After", shed)
	}

	// Waiting out the Retry-After refills the bucket.
	clk.advance(shed.RetryAfter)
	release, err := c.Admit(ctx, "slow", 1)
	if err != nil {
		t.Fatalf("admit after Retry-After: %v", err)
	}
	release()

	// Unconfigured tenants fall back to the (here unlimited) default.
	for i := 0; i < 50; i++ {
		release, err := c.Admit(ctx, "other", 1)
		if err != nil {
			t.Fatalf("unlimited tenant refused: %v", err)
		}
		release()
	}
}

// TestQueueShedOrdering fills every slot and the whole waiting room, then
// proves the order of outcomes: arrivals past the waiting room are shed
// immediately with 503, earlier waiters run once slots free up, and waiters
// that outlive the queue timeout are shed with 503.
func TestQueueShedOrdering(t *testing.T) {
	c := New(Options{
		Concurrency:  2,
		QueueDepth:   2,
		QueueTimeout: 200 * time.Millisecond,
	})
	ctx := context.Background()

	// Occupy both slots.
	var hold []func()
	for i := 0; i < 2; i++ {
		release, err := c.Admit(ctx, "t", 1)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		hold = append(hold, release)
	}

	// Two waiters fill the room.
	type outcome struct {
		release func()
		err     error
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			release, err := c.Admit(ctx, "t", 1)
			results <- outcome{release, err}
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Waiting() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("waiting = %d, want 2", c.Waiting())
		}
		time.Sleep(time.Millisecond)
	}

	// The room is full: the next arrival is shed NOW, not after the timeout.
	start := time.Now()
	_, err := c.Admit(ctx, "t", 1)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow err = %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("overflow shed took %v, want immediate", d)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Code != CodeOverloaded || shed.RetryAfter <= 0 {
		t.Fatalf("shed = %+v, want overloaded with Retry-After", shed)
	}

	// Freeing one slot lets exactly one waiter through...
	hold[0]()
	first := <-results
	if first.err != nil {
		t.Fatalf("first waiter: %v", first.err)
	}
	// ...and the other times out with 503 (both held slots stay busy).
	second := <-results
	if !errors.Is(second.err, ErrOverloaded) {
		t.Fatalf("second waiter err = %v, want ErrOverloaded (timeout)", second.err)
	}
	first.release()
	hold[1]()
	if c.Waiting() != 0 || c.Inflight() != 0 {
		t.Fatalf("leaked state: waiting=%d inflight=%d", c.Waiting(), c.Inflight())
	}
}

func TestAdmitQueueCancel(t *testing.T) {
	c := New(Options{Concurrency: 1, QueueDepth: 4, QueueTimeout: time.Minute})
	release, err := c.Admit(context.Background(), "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Admit(ctx, "t", 1)
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for c.Waiting() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBudgetFromLimits(t *testing.T) {
	c := New(Options{Config: Config{
		Default: Limits{MaxQSteps: 100},
		Tenants: map[string]Limits{"free": {MaxQSteps: 10, MaxDepth: 3, MaxArenaBytes: 1 << 10}},
	}})
	b := c.Budget("free")
	if b == nil || b.MaxQSteps != 10 || b.MaxDepth != 3 || b.MaxBytes != 1<<10 {
		t.Fatalf("budget = %+v", b)
	}
	if err := b.AddQSteps(10); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	err := b.AddQSteps(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *obs.BudgetError
	if !errors.As(err, &be) || be.Resource != "algoq_steps" {
		t.Fatalf("budget error = %+v", err)
	}
	if d := c.Budget("dflt"); d == nil || d.MaxQSteps != 100 {
		t.Fatalf("default budget = %+v", d)
	}
}

// TestPolicyKeepsInitialWorkLimits: a policy swapped in later cannot drop
// the work limits the controller started with. A tenant whose entry leaves
// a work limit zero, and a tenant the policy does not name, get the initial
// one; a limit the entry sets is its own.
func TestPolicyKeepsInitialWorkLimits(t *testing.T) {
	c := New(Options{Config: Config{Default: Limits{MaxQSteps: 100, MaxDepth: 2, MaxArenaBytes: 1 << 20}}})
	c.SetConfig(Config{
		Default: Limits{Rate: 10, Burst: 10},
		Tenants: map[string]Limits{"named": {Rate: 10, Burst: 10, MaxQSteps: 1000}},
	})
	for _, tc := range []struct {
		tenant               string
		qsteps, depth, bytes int64
	}{
		{"named", 1000, 2, 1 << 20},
		{"stranger", 100, 2, 1 << 20},
		{"", 100, 2, 1 << 20},
	} {
		b := c.Budget(tc.tenant)
		if b == nil || b.MaxQSteps != tc.qsteps || b.MaxDepth != tc.depth || b.MaxBytes != tc.bytes {
			t.Errorf("Budget(%q) = %+v, want steps %d, depth %d, bytes %d", tc.tenant, b, tc.qsteps, tc.depth, tc.bytes)
		}
	}
	if b := New(Options{}).Budget("anyone"); b != nil {
		t.Errorf("no work limits anywhere: Budget = %+v, want nil", b)
	}
}

func TestHotReloadConfigFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"default": {"rate": 100, "burst": 100},
	        "tenants": {"a": {"rate": 1, "burst": 1}}}`)

	clk := newFakeClock()
	c := New(Options{Concurrency: 4, Now: clk.now})
	defer c.Close()
	if err := c.WatchFile(path, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Tenant "a": burst 1 → second request shed.
	if _, err := c.Admit(ctx, "a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(ctx, "a", 1); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}

	// Raise "a" to a generous burst; the poller must pick it up.
	write(`{"default": {"rate": 100, "burst": 100},
	        "tenants": {"a": {"rate": 100, "burst": 50}}}`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		clk.advance(time.Second)
		if _, err := c.Admit(ctx, "a", 10); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hot reload never took effect")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if c.WatchCap("a") != 0 {
		t.Fatalf("watch cap = %d, want 0", c.WatchCap("a"))
	}
}

func TestLoadConfigFileErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"tenants": {"x": {"rate": -1}}}`), 0o644)
	if _, err := LoadConfigFile(bad); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v, want negative-rate validation error", err)
	}
	if _, err := LoadConfigFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file: want error")
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	clk := newFakeClock()
	c := New(Options{
		Reg:         reg,
		Concurrency: 1,
		Config: Config{Tenants: map[string]Limits{
			"a": {Rate: 1, Burst: 1},
		}},
		Now: clk.now,
	})
	ctx := context.Background()
	release, _ := c.Admit(ctx, "a", 1)
	release()
	if _, err := c.Admit(ctx, "a", 1); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("want rate limit, got %v", err)
	}
	c.RecordBudgetKill()
	c.RecordWatchShed()

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`funcdbd_admission_admitted_total 1`,
		`funcdbd_admission_sheds_total{reason="rate_limited"} 1`,
		`funcdbd_admission_sheds_total{reason="overloaded"} 0`,
		`funcdbd_admission_sheds_total{reason="watch_cap"} 1`,
		`funcdbd_admission_budget_kills_total 1`,
		`funcdbd_admission_queue_depth 0`,
		`funcdbd_admission_tokens{tenant="a"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}
