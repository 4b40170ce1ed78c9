package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"funcdb/internal/datagen"
	"funcdb/internal/obs"
)

// collidingTexts returns n ground texts over Even, all of one length, that
// agree on every byte textKey samples and differ only elsewhere: in two
// digits no sample covers. Text i's first such digit is i%10 and its second
// 2·(i/10), so it holds iff i is even (n ≤ 50).
func collidingTexts(n int) []string {
	const atoms = 40
	base := []byte("?- " + strings.Repeat("Even(0), ", atoms-1) + "Even(0).")
	sampled := make([]bool, len(base))
	for i := 0; i < keyEdge; i++ {
		sampled[i], sampled[len(base)-1-i] = true, true
	}
	for _, off := range keyOffsets(len(base)) {
		for j := off; j < off+8; j++ {
			sampled[j] = true
		}
	}
	var free []int
	for i, c := range base {
		if c == '0' && !sampled[i] {
			free = append(free, i)
		}
	}
	texts := make([]string, n)
	for i := range texts {
		b := slices.Clone(base)
		b[free[0]] = byte('0' + i%10)
		b[free[1]] = byte('0' + 2*(i/10))
		texts[i] = string(b)
	}
	return texts
}

// collisionFailures asks textsPerKey+4 texts that share one text key, twice
// each, and reports every way the text level got them wrong: a text must
// get a plan of its own and the verdict the tree lowering gives, on the
// miss and on the hit; the first textsPerKey are cached, and hit the second
// time; the rest overflow the key, and are answered as misses both times,
// neither stored nor charged.
func collisionFailures(t *testing.T) []string {
	ctx := context.Background()
	s := deepSnapshot(t, "Even(0). Even(T) -> Even(T+2).")
	texts := collidingTexts(textsPerKey + 4)
	key := textKey(texts[0])
	for i, q := range texts {
		if textKey(q) != key || len(q) != len(texts[0]) || (i > 0 && q == texts[0]) {
			t.Fatalf("text %d does not share text 0's key: the construction is wrong", i)
		}
	}
	sink := &obs.EngineStats{}
	defer obs.SetEngineSink(obs.SetEngineSink(sink))
	counts := func() (hits, misses int64) {
		c := sink.Counters()
		return c["plan_cache_hits_total"], c["plan_cache_misses_total"]
	}
	pc := &s.plans
	var fails []string
	built := make([]*Plan, len(texts))
	owner := make(map[*Plan]int)
	for pass, name := range []string{"miss", "hit"} {
		for i, q := range texts {
			cached := i < textsPerKey
			want := i%2 == 0
			if ref, _, err := s.treePlan(q); err != nil || ref == nil || ref.verdict != want {
				t.Fatalf("text %d: the tree lowering does not answer %v: the construction is wrong", i, want)
			}
			h0, m0 := counts()
			bytes0, n0 := pc.bytes, pc.ntexts
			p, err := s.Prepare(ctx, q)
			if err != nil {
				fails = append(fails, fmt.Sprintf("%s, text %d: %v", name, i, err))
				continue
			}
			if got, err := p.Ask(ctx); err != nil || got != want {
				fails = append(fails, fmt.Sprintf("%s, text %d: answers %v, %v; the tree lowering %v", name, i, got, err, want))
			}
			if j, ok := owner[p]; ok && j != i {
				fails = append(fails, fmt.Sprintf("%s, text %d: got text %d's plan", name, i, j))
			}
			owner[p] = i
			h1, m1 := counts()
			switch {
			case pass == 1 && cached:
				if h1-h0 != 1 || m1 != m0 || p != built[i] {
					fails = append(fails, fmt.Sprintf("hit, text %d: %d hits, %d misses, same plan %v; want a hit on the plan the miss built", i, h1-h0, m1-m0, p == built[i]))
				}
			case h1 != h0 || m1-m0 != 1:
				fails = append(fails, fmt.Sprintf("%s, text %d: %d hits, %d misses; want one miss", name, i, h1-h0, m1-m0))
			}
			switch {
			case pass == 0 && cached && (pc.ntexts != n0+1 || pc.bytes <= bytes0):
				fails = append(fails, fmt.Sprintf("miss, text %d: not stored (%d → %d texts, %d → %d bytes)", i, n0, pc.ntexts, bytes0, pc.bytes))
			case !cached && (pc.ntexts != n0 || pc.bytes != bytes0):
				fails = append(fails, fmt.Sprintf("%s, text %d overflows its key but was stored: %d → %d texts, %d → %d bytes", name, i, n0, pc.ntexts, bytes0, pc.bytes))
			}
			built[i] = p
		}
	}
	return fails
}

// TestTextKeyCollisions: the text level keys on a sample of the text, so
// texts built to agree on every sampled byte share a key; comparing the
// text whole must still tell them apart, and the key's chain is capped.
func TestTextKeyCollisions(t *testing.T) {
	for _, f := range collisionFailures(t) {
		t.Error(f)
	}
}

// hotTexts returns 64 ground texts shaped like the benchmark's hot pool —
// the three deep families in turn, term depths stratified over 0..1023 —
// with the snapshot each is asked of and its answer.
func hotTexts(tb testing.TB) (snaps []*Snapshot, texts []string, want []bool) {
	tb.Helper()
	ctx := context.Background()
	fams := make([]*Snapshot, len(deepFamilies))
	for i, f := range deepFamilies {
		fams[i] = deepSnapshot(tb, f.src)
	}
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(64)
	for i, slot := range perm {
		fi := i % len(deepFamilies)
		f := deepFamilies[fi]
		q := datagen.DeepQuery(f.name, f.n, 16*slot+r.Intn(16), int64(i))
		ok, err := fams[fi].Ask(ctx, q)
		if err != nil {
			tb.Fatalf("%.80s: %v", q, err)
		}
		snaps, texts, want = append(snaps, fams[fi]), append(texts, q), append(want, ok)
	}
	return snaps, texts, want
}

// TestPlanHitsCountedExactly: the plan-hit counter is striped by P, and the
// stripes add up. Four goroutines — more than the Ps of a small machine, so
// some share a stripe and some do not — make 10 000 hits each over 64 texts,
// and the hit count must be 40 000 exactly. Run under -race.
func TestPlanHitsCountedExactly(t *testing.T) {
	ctx := context.Background()
	snaps, texts, want := hotTexts(t)
	sink := &obs.EngineStats{}
	defer obs.SetEngineSink(obs.SetEngineSink(sink))
	const workers, hits = 4, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < hits; i++ {
				k := (w*len(texts)/workers + i) % len(texts)
				if got, err := snaps[k].Ask(ctx, texts[k]); err != nil || got != want[k] {
					t.Errorf("%.80s: %v, %v; want %v", texts[k], got, err, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c := sink.Counters()
	if c["plan_cache_hits_total"] != workers*hits || c["plan_cache_misses_total"] != 0 {
		t.Errorf("%d hits, %d misses counted; want %d hits, 0 misses", c["plan_cache_hits_total"], c["plan_cache_misses_total"], workers*hits)
	}
}

// BenchmarkTextHit is the text hit on the 64 hot texts, by GOMAXPROCS
// goroutines at once (run it at -cpu 1,2): asked with the very strings the
// cache stored (pointer-equal, so comparing them is free) and with freshly
// built copies, which are compared byte by byte, as a server's decoded
// request bodies are. Each goroutine keeps its place in registers: with
// b.RunParallel every goroutine's testing.PB writes a cache line the others
// write, which hides the scaling this measures.
func BenchmarkTextHit(b *testing.B) {
	ctx := context.Background()
	snaps, texts, want := hotTexts(b)
	copies := make([]string, len(texts))
	for i, q := range texts {
		copies[i] = strings.Clone(q)
	}
	for _, c := range []struct {
		name  string
		texts []string
	}{{"same", texts}, {"copy", copies}} {
		b.Run(c.name, func(b *testing.B) {
			procs := runtime.GOMAXPROCS(0)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < procs; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					k := g * len(texts) / procs
					for i := g; i < b.N; i += procs {
						if got, err := snaps[k].Ask(ctx, c.texts[k]); err != nil || got != want[k] {
							b.Errorf("%.80s: %v, %v; want %v", texts[k], got, err, want[k])
							return
						}
						if k++; k == len(texts) {
							k = 0
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
