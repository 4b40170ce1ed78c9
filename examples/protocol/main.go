// Protocol: functional deductive databases as protocol monitors.
//
// A session protocol is modelled as an infinite labelled transition system:
// the functional term is the event trace (each event a unary function
// symbol) and State(w, q) says the session is in control state q after
// trace w. The set of traces is infinite; its relational specification is
// exactly the protocol automaton, the minimized form is the canonical
// monitor, and the answer to ?- State(S, error) is the (infinite, finitely
// represented) set of all invalid traces.
//
// Run with: go run ./examples/protocol
package main

import (
	"context"
	"fmt"
	"log"

	"funcdb"
)

const protocol = `
% Control states: idle, active, error. Events: login, send, logout.
State(0, idle).

% Legal transitions.
State(S, idle)   -> State(login(S), active).
State(S, active) -> State(send(S), active).
State(S, active) -> State(logout(S), idle).

% Everything else is a protocol violation, and error is absorbing.
State(S, idle)   -> State(send(S), error).
State(S, idle)   -> State(logout(S), error).
State(S, active) -> State(login(S), error).
State(S, error)  -> State(login(S), error).
State(S, error)  -> State(send(S), error).
State(S, error)  -> State(logout(S), error).

% Which control states are reachable at all?
State(S, Q) -> Reachable(Q).
`

func main() {
	db, err := funcdb.Open(protocol, funcdb.Options{})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	spec, err := db.Graph()
	if err != nil {
		log.Fatalf("graph: %v", err)
	}
	st, err := db.Stats(context.Background())
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	fmt.Printf("trace space collapsed to %d clusters; parameters: %s\n\n", st.Reps, st.Params)

	// Validate concrete traces.
	for _, q := range []string{
		`?- State(logout(send(login(0))), idle).`,
		`?- State(send(login(0)), active).`,
		`?- State(send(0), error).`,
		`?- State(login(login(0)), error).`,
		`?- State(send(login(0)), error).`,
	} {
		yes, err := db.Ask(context.Background(), q)
		if err != nil {
			log.Fatalf("ask: %v", err)
		}
		fmt.Printf("%-46s %v\n", q, yes)
	}

	// Explain a verdict: why is login;login a violation?
	exs, err := db.Explain(`?- State(login(login(0)), error).`)
	if err != nil {
		log.Fatalf("explain: %v", err)
	}
	fmt.Println()
	for _, ex := range exs {
		fmt.Print(ex.String())
	}

	// The monitor: the minimized automaton over observable behaviour.
	m, err := funcdb.Minimize(spec)
	if err != nil {
		log.Fatalf("minimize: %v", err)
	}
	fmt.Printf("\nmonitor: %d states (from %d representatives)\n", m.NumStates(), len(spec.Reps))

	// All invalid traces up to 3 events.
	ans, err := db.Answers(context.Background(), `?- State(S, error).`)
	if err != nil {
		log.Fatalf("answers: %v", err)
	}
	count := 0
	if err := ans.Paths(context.Background(), 3, func([]funcdb.FuncID, []funcdb.ConstID) bool {
		count++
		return true
	}); err != nil {
		log.Fatalf("enumerate: %v", err)
	}
	fmt.Printf("invalid traces of length <= 3: %d of %d\n", count, 3+9+27)

	reachable, err := db.Ask(context.Background(), `?- Reachable(error).`)
	if err != nil {
		log.Fatalf("ask: %v", err)
	}
	fmt.Printf("error state reachable: %v\n", reachable)
}
