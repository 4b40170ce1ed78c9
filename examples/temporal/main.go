// Temporal: the Even example of section 3.5 plus a realistic maintenance
// calendar, demonstrating equational specifications and the congruence
// closure procedure [DST80].
//
// Run with: go run ./examples/temporal
package main

import (
	"fmt"
	"log"

	"funcdb"
)

const even = `
Even(0).
Even(T) -> Even(T+2).
`

// A data center's maintenance calendar: backups every 3 days starting day
// 1, audits every 6 days starting day 4, and a combined "busy day" signal.
const maintenance = `
Backup(1).
Backup(T) -> Backup(T+3).
Audit(4).
Audit(T) -> Audit(T+6).
Backup(T), Audit(T) -> Busy(T).
`

func main() {
	// --- Section 3.5: Even, R = {(0, 2)}. ---
	db, err := funcdb.Open(even, funcdb.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	spec, err := db.Graph()
	if err != nil {
		log.Fatalf("graph: %v", err)
	}
	lasso, err := funcdb.BuildTemporal(spec)
	if err != nil {
		log.Fatalf("temporal: %v", err)
	}
	fmt.Print(lasso.Dump())

	eq := lasso.EqSpec()
	u := db.Universe()
	succ, _ := db.Tab().LookupFunc("succ", 0)
	fmt.Printf("(0,4) in Cl(R): %v\n", eq.Congruent(u.Number(0, succ), u.Number(4, succ)))
	fmt.Printf("(1,3) in Cl(R): %v\n", eq.Congruent(u.Number(1, succ), u.Number(3, succ)))
	fmt.Printf("(0,3) in Cl(R): %v\n", eq.Congruent(u.Number(0, succ), u.Number(3, succ)))

	// --- A maintenance calendar with interacting periods. ---
	db2, err := funcdb.Open(maintenance, funcdb.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	spec2, err := db2.Graph()
	if err != nil {
		log.Fatalf("graph: %v", err)
	}
	lasso2, err := funcdb.BuildTemporal(spec2)
	if err != nil {
		log.Fatalf("temporal: %v", err)
	}
	fmt.Printf("\nmaintenance calendar: prefix %d, period %d\n", lasso2.Prefix, lasso2.Period)
	busy, _ := db2.Tab().LookupPred("Busy", 0, true)
	backup, _ := db2.Tab().LookupPred("Backup", 0, true)
	fmt.Println("day:  backup busy")
	for day := 0; day <= 16; day++ {
		fmt.Printf("%3d:  %-6v %v\n", day,
			lasso2.Has(backup, day, nil), lasso2.Has(busy, day, nil))
	}
	// Far-future scheduling in O(1).
	fmt.Printf("day 3000004 busy: %v\n", lasso2.Has(busy, 3000004, nil))

	// Closed forms: the paper's "every second day", computed.
	audit, _ := db2.Tab().LookupPred("Audit", 0, true)
	fmt.Printf("\nclosed forms:\n")
	fmt.Printf("  backup days: %s\n", temporalFormat(lasso2, backup))
	fmt.Printf("  audit days:  %s\n", temporalFormat(lasso2, audit))
	fmt.Printf("  busy days:   %s\n", temporalFormat(lasso2, busy))
}

func temporalFormat(l *funcdb.TemporalSpec, p funcdb.PredID) string {
	return funcdb.FormatProgressions(l.Progressions(p, nil))
}
