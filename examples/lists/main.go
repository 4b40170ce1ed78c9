// Lists: the list-processing example of sections 2.1 and 3.4.
//
// Member(s, x) says that x occurs in the list s, where lists are built from
// the mixed symbol ext (cons with the arguments reversed). The infinite
// Member relation over all lists with elements from P collapses to one
// cluster per subset of P: lists with the same element set are congruent.
// The example prints the exact run of Algorithm Q from section 3.4 —
// representatives 0, a, b, ab — then uses both the graph and the equational
// specification to answer queries.
//
// Run with: go run ./examples/lists
package main

import (
	"context"
	"fmt"
	"log"

	"funcdb"
)

const program = `
P(a).
P(b).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`

func main() {
	db, err := funcdb.Open(program, funcdb.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	spec, err := db.Graph()
	if err != nil {
		log.Fatalf("graph: %v", err)
	}
	// Section 3.4's output: representatives 0, a, b, ab with their slices
	// and six repetitive successor mappings.
	fmt.Print(spec.Dump())

	// The equational specification: R as computed by the algorithm
	// (a ~ aa, ab ~ ba, b ~ bb, ab ~ aba, ab ~ abb).
	form := funcdb.BuildCanonical(spec)
	eq := form.EqSpec()
	fmt.Print("\n", eq.Dump(db.Tab()))

	// Deep membership through both representations.
	tab := db.Tab()
	u := db.Universe()
	extA, _ := tab.LookupFunc("ext'a", 0)
	extB, _ := tab.LookupFunc("ext'b", 0)
	member, _ := tab.LookupPred("Member", 1, true)
	aC, _ := tab.LookupConst("a")

	babab := u.ApplyString(funcdb.Zero, extB, extA, extB, extA, extB)
	viaGraph, err := spec.Has(member, babab, []funcdb.ConstID{aC})
	if err != nil {
		log.Fatalf("graph membership: %v", err)
	}
	viaEq := form.Has(member, babab, []funcdb.ConstID{aC})
	fmt.Printf("\nMember(babab, a): graph spec says %v, congruence closure says %v\n",
		viaGraph, viaEq)

	// The section 5 query: which lists contain a? The incremental answer
	// specification is Q(B) = {QUERY(a), QUERY(ab)} with T unchanged.
	ans, err := db.Answers(context.Background(), `?- Member(S, a).`)
	if err != nil {
		log.Fatalf("answers: %v", err)
	}
	fmt.Print("\n", ans.Dump())

	fmt.Println("\nlists containing a, up to 3 elements:")
	err = ans.Paths(context.Background(), 3, func(list []funcdb.FuncID, _ []funcdb.ConstID) bool {
		fmt.Printf("  %s\n", ans.AppendPath(nil, list))
		return true
	})
	if err != nil {
		log.Fatalf("enumerate: %v", err)
	}
}
