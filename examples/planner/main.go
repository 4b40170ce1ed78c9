// Planner: the situation-calculus example from section 1 of the paper.
//
// States are terms built from move operators; At(s, p) says that after
// executing the move sequence s the robot stands at p. The set of plans
// reaching a position is infinite (every cycle can be traversed any number
// of times), but there are only finitely many positions, so the plan space
// collapses to a finite quotient: "once the robot is again in the same
// position it faces the same set of possible moves."
//
// Run with: go run ./examples/planner
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"funcdb"
)

const warehouse = `
% A small warehouse: dock, aisle, shelf, packing station.
At(0, dock).
Connected(dock, aisle).
Connected(aisle, shelf).
Connected(shelf, aisle).
Connected(aisle, packing).
Connected(packing, dock).
At(S, P1), Connected(P1, P2) -> At(move(S, P1, P2), P2).
`

func main() {
	db, err := funcdb.Open(warehouse, funcdb.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	st, err := db.Stats(context.Background())
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	fmt.Printf("infinite plan space collapsed to %d clusters (%d successor edges)\n\n",
		st.Reps, st.Edges)

	// Validate specific plans from the specification.
	for _, q := range []string{
		`?- At(move(move(0, dock, aisle), aisle, shelf), shelf).`,
		`?- At(move(move(0, dock, aisle), aisle, shelf), packing).`,
		`?- At(move(0, shelf, aisle), aisle).`, // illegal: robot starts at dock
	} {
		yes, err := db.Ask(context.Background(), q)
		if err != nil {
			log.Fatalf("ask: %v", err)
		}
		fmt.Printf("%v  %s\n", yes, q)
	}

	// All plans that reach the packing station: an infinite answer,
	// enumerated here up to 4 moves.
	ans, err := db.Answers(context.Background(), `?- At(S, packing).`)
	if err != nil {
		log.Fatalf("answers: %v", err)
	}
	fmt.Println("\nplans reaching packing (up to 4 moves):")
	count := 0
	err = ans.Paths(context.Background(), 4, func(plan []funcdb.FuncID, _ []funcdb.ConstID) bool {
		count++
		fmt.Printf("  %s\n", formatPlan(ans, plan))
		return true
	})
	if err != nil {
		log.Fatalf("enumerate: %v", err)
	}
	fmt.Printf("%d plans of length <= 4; infinitely many in total\n", count)
}

// formatPlan renders a move path, innermost-first, as a route: dock ->
// aisle -> shelf. The names come from the answer, which may name symbols
// the database does not.
func formatPlan(ans *funcdb.Answers, plan []funcdb.FuncID) string {
	stops := []string{"dock"}
	for _, f := range plan {
		// Derived symbols are named move'from'to.
		parts := strings.Split(ans.FuncName(f), "'")
		stops = append(stops, parts[2])
	}
	return strings.Join(stops, " -> ")
}
