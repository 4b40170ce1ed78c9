// Verify: what the finite specification buys beyond query answering.
// Because the infinite fixpoint collapses to finitely many clusters, three
// otherwise-undecidable-looking checks become decidable:
//
//   - universal invariants over ALL ground terms (CheckAll),
//   - equivalence of two rule sets with counterexamples (Equivalent),
//   - semantic dead-rule and empty-predicate analysis (Lint).
//
// Run with: go run ./examples/verify
package main

import (
	"fmt"
	"log"

	"funcdb"
)

// Two versions of a badge-access policy. The refactored one was "simplified"
// by a well-meaning reviewer — is it still the same policy?
const policyV1 = `
Access(0, lobby).
Access(S, lobby)  -> Access(badge(S), office).
Access(S, office) -> Access(badge(S), lab).
Access(S, office) -> Access(leave(S), lobby).
Access(S, lab)    -> Access(leave(S), office).
Access(S, lobby)  -> Access(leave(S), lobby).
`

const policyV2 = `
Access(S, lobby)  -> Access(leave(S), lobby).
Access(S, lab)    -> Access(leave(S), office).
Access(S, office) -> Access(leave(S), lobby).
Access(S, office) -> Access(badge(S), lab).
Access(S, lobby)  -> Access(badge(S), office).
Access(0, lobby).
`

// A buggy variant: leaving the lab drops you in the lobby, skipping the
// office checkpoint.
const policyBuggy = `
Access(0, lobby).
Access(S, lobby)  -> Access(badge(S), office).
Access(S, office) -> Access(badge(S), lab).
Access(S, office) -> Access(leave(S), lobby).
Access(S, lab)    -> Access(leave(S), lobby).
Access(S, lobby)  -> Access(leave(S), lobby).
`

func minimized(src string) *funcdb.Minimized {
	db, err := funcdb.Open(src, funcdb.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	spec, err := db.Graph()
	if err != nil {
		log.Fatalf("graph: %v", err)
	}
	m, err := funcdb.Minimize(spec)
	if err != nil {
		log.Fatalf("minimize: %v", err)
	}
	return m
}

func main() {
	// --- Equivalence checking. ---
	v1 := minimized(policyV1)
	v2 := minimized(policyV2)
	buggy := minimized(policyBuggy)

	eq, _, err := funcdb.Equivalent(v1, v2)
	if err != nil {
		log.Fatalf("equivalent: %v", err)
	}
	fmt.Printf("v1 == v2 (reordered): %v\n", eq)

	eq, counter, err := funcdb.Equivalent(v1, buggy)
	if err != nil {
		log.Fatalf("equivalent: %v", err)
	}
	tab := v1.Spec.Tab
	fmt.Printf("v1 == buggy: %v; first differing badge history: %s\n",
		eq, v1.Spec.U.String(counter, tab))

	// --- Universal invariant: nobody is ever in two rooms at once. ---
	db, err := funcdb.Open(policyV1, funcdb.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	spec, err := db.Graph()
	if err != nil {
		log.Fatalf("graph: %v", err)
	}
	access, _ := db.Tab().LookupPred("Access", 1, true)
	rooms := []string{"lobby", "office", "lab"}
	ok, _ := spec.CheckAll(func(v funcdb.ClusterView) bool {
		count := 0
		for _, room := range rooms {
			c, _ := db.Tab().LookupConst(room)
			if v.Has(access, []funcdb.ConstID{c}) {
				count++
			}
		}
		return count <= 1
	})
	fmt.Printf("at most one room per history (all infinitely many histories): %v\n", ok)

	// --- Lint: a policy with an unreachable clause. ---
	db2, err := funcdb.Open(policyV1+`
Access(S, vault) -> Alarm(S).
@functional Alarm/1.
`, funcdb.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	findings, err := db2.Lint()
	if err != nil {
		log.Fatalf("lint: %v", err)
	}
	fmt.Println("\nlint of the policy with a vault clause (vault is unreachable):")
	for _, f := range findings {
		fmt.Println(" ", f)
	}
}
