// Quickstart: the advisor-meetings example from section 1 of the paper.
//
// The rule Meets(T, X), Next(X, Y) -> Meets(T+1, Y) schedules infinitely
// many meetings, so the answer to ?- Meets(T, X) is infinite. funcdb
// represents it finitely: two congruence classes (even and odd days), a
// two-slice primary database and the finite successor function f(0)=1,
// f(1)=0.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"funcdb"
)

const program = `
% The fact Meets(t, x) means student x meets the advisor on day t.
Meets(0, tony).
Next(tony, jan).
Next(jan, tony).
Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
`

func main() {
	db, err := funcdb.Open(program, funcdb.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}

	// The graph specification (B, T): Algorithm Q collapses the infinite
	// fixpoint to representative days.
	spec, err := db.Graph()
	if err != nil {
		log.Fatalf("graph specification: %v", err)
	}
	fmt.Print(spec.Dump())

	// Yes-no queries are decided from the specification alone.
	for _, q := range []string{
		`?- Meets(4, tony).`,
		`?- Meets(5, tony).`,
		`?- Meets(1001, jan).`,
	} {
		yes, err := db.Ask(context.Background(), q)
		if err != nil {
			log.Fatalf("ask: %v", err)
		}
		fmt.Printf("%-24s %v\n", q, yes)
	}

	// The infinite answer to ?- Meets(T, X), represented finitely and then
	// enumerated up to day 6.
	ans, err := db.Answers(context.Background(), `?- Meets(T, X).`)
	if err != nil {
		log.Fatalf("answers: %v", err)
	}
	fmt.Println("\nanswers to ?- Meets(T, X) up to day 6:")
	err = ans.Paths(context.Background(), 6, func(day []funcdb.FuncID, args []funcdb.ConstID) bool {
		fmt.Printf("  T = %-3s X = %s\n",
			ans.AppendPath(nil, day), ans.ConstName(args[0]))
		return true
	})
	if err != nil {
		log.Fatalf("enumerate: %v", err)
	}

	// Temporal programs additionally get the lasso form with O(1)
	// arithmetic membership.
	lasso, err := funcdb.BuildTemporal(spec)
	if err != nil {
		log.Fatalf("temporal: %v", err)
	}
	fmt.Printf("\nlasso: prefix %d, period %d\n", lasso.Prefix, lasso.Period)
	meets, _ := db.Tab().LookupPred("Meets", 1, true)
	tony, _ := db.Tab().LookupConst("tony")
	fmt.Printf("Meets(1000000, tony) = %v\n",
		lasso.Has(meets, 1000000, []funcdb.ConstID{tony}))
}
