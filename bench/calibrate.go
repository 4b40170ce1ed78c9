package main

import (
	"encoding/json"
	"hash/fnv"
	"strings"
	"sync"
	"time"
)

// The sandbox this benchmark runs on is a small shared VM whose speed
// drifts by tens of percent over minutes (neighbours on the same host), far
// more than any bound worth enforcing. A run therefore times a fixed
// reference kernel in short bursts on all cores — after every set-up and
// after every half-second slice of the timed phase, while the daemons idle —
// and scales its time-based metrics to the speed of a reference machine on
// which the kernel completes refUnitsPerSec units per second per core. The kernel is this file and the standard library only — nothing of
// funcdb — so a change to the system cannot move it.

// refUnitsPerSec is the kernel's speed on the reference machine (the
// sandbox of the first committed run, at its typical speed).
const refUnitsPerSec = 550_000

// refDoc is what the kernel scans: shaped like an ask body.
var refDoc = []byte(`{"query":"?- Member(` + strings.Repeat("ext(", 40) + "0" + strings.Repeat(", e1)", 40) + `, e1).","depth":12,"limit":1000}`)

// refKey is the map key the kernel looks up: as long as a deep query text.
var refKey = string(refDoc)

// refUnit is one unit of reference work: scan a request-sized JSON
// document, hash it, and look a long key up in a map — the instruction mix of
// a cached HTTP ask. It allocates nothing, so the size of this process's heap
// (the oracle's databases) cannot slow it through the collector.
func refUnit(m map[string]int, sink *uint64) {
	if !json.Valid(refDoc) {
		panic("reference document does not parse")
	}
	h := fnv.New64a()
	h.Write(refDoc)
	*sink += h.Sum64() + uint64(m[refKey])
}

// machineSpeed runs the reference kernel on n goroutines for d and returns
// units per second per goroutine.
func machineSpeed(n int, d time.Duration) float64 {
	m := map[string]int{refKey: 1}
	units := make([]int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sink uint64
			for time.Since(start) < d {
				for i := 0; i < 64; i++ {
					refUnit(m, &sink)
				}
				units[g] += 64
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	total := 0
	for _, u := range units {
		total += u
	}
	return float64(total) / elapsed / float64(n)
}

// calibrator collects reference-kernel bursts over one run.
type calibrator struct {
	clients int
	speeds  []float64
}

const (
	// burstLength is how long the reference kernel runs each time.
	burstLength = 150 * time.Millisecond
	// settle lets the daemons finish what the last request left behind
	// (connection bookkeeping, a GC cycle) before the kernel is timed.
	settle = 10 * time.Millisecond
)

func (c *calibrator) burst() {
	time.Sleep(settle)
	c.speeds = append(c.speeds, machineSpeed(c.clients, burstLength))
}

// scale is the factor that converts a duration measured during this run to
// reference-machine time: the median burst speed over the reference speed.
// Single bursts scatter by +-15%, so one factor per run, from all of them,
// is steadier than one per slice.
func (c *calibrator) scale() float64 { return median(c.speeds) / refUnitsPerSec }
