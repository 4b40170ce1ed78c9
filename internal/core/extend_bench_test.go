package core

import (
	"fmt"
	"testing"

	"funcdb/internal/datagen"
)

// writeFamilies are the programs of the benchmark's write_mix workload
// (bench/workloads.go) with a stream of distinct ground facts for each: the
// first few at depth 0, the rest at the depth of the family's deep fact — the
// fact one level (cal: eight days) deeper than anything in the program that
// each write_mix cycle posts.
var writeFamilies = []struct {
	name, src, deep string
	fact            func(i int) string
}{
	{"cal", datagen.CalendarSrc(64), "Meets(8, s0).", func(i int) string {
		if i < 7 {
			return fmt.Sprintf("Meets(0, s%d).", 9*i+5)
		}
		return fmt.Sprintf("Meets(%d, s%d).", i%9, (7*i+3)%64)
	}},
	{"sub", datagen.SubsetsSrc(7), "Member(ext(0, e6), e6).", func(i int) string {
		if i < 7 {
			return fmt.Sprintf("Member(0, e%d).", i)
		}
		return fmt.Sprintf("Member(ext(0, e%d), e%d).", (i-7)/7, i%7)
	}},
	{"rob", datagen.RobotSrc(8), "At(move(0, p0, p1), p2).", func(i int) string {
		if i < 7 {
			return fmt.Sprintf("At(0, p%d).", i+1)
		}
		return fmt.Sprintf("At(move(0, p%d, p%d), p%d).", i%8, (i/8)%8, (3*i+1)%8)
	}},
}

// openPublished opens src and publishes its first snapshot, as fdbd has by
// the time a facts post arrives.
func openPublished(tb testing.TB, src string) *Database {
	tb.Helper()
	db, err := Open(src, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Snapshot(); err != nil {
		tb.Fatal(err)
	}
	return db
}

// extendPublish posts one fact and republishes, the write path of one facts
// request.
func extendPublish(tb testing.TB, db *Database, fact string) {
	tb.Helper()
	if err := db.Extend(fact); err != nil {
		tb.Fatalf("Extend(%s): %v", fact, err)
	}
	if _, err := db.Snapshot(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkExtend times one monotone Extend: "first" is a depth-0 fact into
// the freshly published program (the bench's core.extend_us), "after50" a
// fact into a database that has taken fifty before it, republishing after
// each — what a fact costs must not grow with the history.
func BenchmarkExtend(b *testing.B) {
	for _, f := range writeFamilies {
		f := f
		run := func(name, src string, history int) {
			b.Run(f.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					db := openPublished(b, src)
					for j := 0; j < history; j++ {
						extendPublish(b, db, f.fact(j))
					}
					b.StartTimer()
					if err := db.Extend(f.fact(history)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("first", f.src, 0)
		run("after50", f.src+f.deep+"\n", 50)
	}
}

// publishCases are the republishes BenchmarkPublish times and
// TestPublishBytes gates: each write family after one monotone Extend, and
// robdeep, rob after its deep fact, where Algorithm Q examines the 4096 terms
// of depth 2.
func publishCases() []publish {
	var cases []publish
	for _, f := range writeFamilies {
		cases = append(cases, publish{f.name, f.src, f.fact(0)})
	}
	rob := writeFamilies[2]
	return append(cases, publish{"robdeep", rob.src + rob.deep + "\n", rob.fact(7)})
}

type publish struct{ name, src, fact string }

// BenchmarkPublish times the republish after one monotone Extend: Algorithm
// Q, minimization and the freezes (the bench's core.snapshot_publish_us).
func BenchmarkPublish(b *testing.B) {
	for _, c := range publishCases() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := openPublished(b, c.src)
				if err := db.Extend(c.fact); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := db.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColdOpen times a cold compile — Open and the first Snapshot, what a
// PUT costs before the WAL — of each write family, plain and with the
// family's deep fact in the text.
func BenchmarkColdOpen(b *testing.B) {
	for _, f := range writeFamilies {
		for _, c := range []struct{ name, src string }{{"plain", f.src}, {"deep", f.src + f.deep + "\n"}} {
			c := c
			b.Run(f.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					openPublished(b, c.src)
				}
			})
		}
	}
}
