// Offline: the "rules may be forgotten" property of section 3 made
// concrete. A service compiles a functional deductive database once,
// exports the relational specification as JSON, and ships it; a consumer
// loads the document alone — no rules, no fixpoint engine — and answers
// ground queries via the DFA walk or the congruence-closure test, and
// uniform open queries by Theorem 5.1.
//
// Run with: go run ./examples/offline
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"

	"funcdb"
)

const program = `
% Which lists over {red, green} contain which colours?
P(red).
P(green).
P(X) -> Member(ext(0, X), X).
P(Y), Member(S, X) -> Member(ext(S, Y), Y).
P(Y), Member(S, X) -> Member(ext(S, Y), X).
`

func main() {
	// --- Producer side: compile and export. ---
	db, err := funcdb.Open(program, funcdb.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	var wire bytes.Buffer
	if err := db.Export(&wire); err != nil {
		log.Fatalf("export: %v", err)
	}
	fmt.Printf("exported specification: %d bytes of JSON\n", wire.Len())

	// --- Consumer side: rules are gone; only the document travels. ---
	doc, err := funcdb.ReadSpec(&wire)
	if err != nil {
		log.Fatalf("read: %v", err)
	}
	snap, err := funcdb.LoadSpec(doc)
	if err != nil {
		log.Fatalf("load: %v", err)
	}
	fmt.Printf("loaded %d representatives over alphabet %v\n\n", len(doc.Reps), doc.Alphabet)

	// Queries are written as against the program: the mixed application
	// ext(S, red) is the document's symbol ext'red.
	ctx := context.Background()
	ask := func(q string, opts ...funcdb.Option) bool {
		yes, err := snap.Ask(ctx, q, opts...)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		return yes
	}
	for _, colour := range []string{"red", "green"} {
		q := fmt.Sprintf("?- Member(ext(ext(ext(0, red), green), red), %s).", colour)
		fmt.Printf("%s DFA %v, congruence closure %v\n",
			q, ask(q), ask(q, funcdb.WithMethod(funcdb.MethodEquational)))
	}
	q := "?- Member(ext(ext(ext(ext(0, green), green), green), green), red)."
	fmt.Printf("%s %v\n", q, ask(q))

	// A uniform open query is answered from the slices alone (Theorem 5.1);
	// one that applies a function to its variable needs the rules.
	ans, err := snap.Answers(ctx, "?- Member(S, red).")
	if err != nil {
		log.Fatalf("answers: %v", err)
	}
	fmt.Println("\nlists of length at most 2 that contain red:")
	if err := ans.Paths(ctx, 2, func(list []funcdb.FuncID, _ []funcdb.ConstID) bool {
		fmt.Printf("  %s\n", ans.AppendPath(nil, list))
		return true
	}); err != nil {
		log.Fatalf("enumerate: %v", err)
	}
	if _, err := snap.Answers(ctx, "?- Member(ext(S, red), green)."); errors.Is(err, funcdb.ErrNeedsRules) {
		fmt.Println("?- Member(ext(S, red), green). needs the rules:", err)
	}

	// The automaton itself, ready for Graphviz.
	fmt.Println("\nGraphviz DOT of the successor automaton:")
	fmt.Print(doc.DOT())
}
