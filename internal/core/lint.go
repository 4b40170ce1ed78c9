package core

import (
	"context"
	"fmt"

	"funcdb/internal/facts"
	"funcdb/internal/symbols"
)

// LintFinding is one diagnostic from Lint.
type LintFinding struct {
	// Kind is "dead-rule" (a rule whose body is never satisfiable in the
	// least fixpoint) or "empty-predicate" (a predicate with no facts
	// anywhere).
	Kind   string
	Detail string
}

func (f LintFinding) String() string { return f.Kind + ": " + f.Detail }

// Lint analyzes the compiled database for rules that can never fire and
// predicates that are empty everywhere. Both analyses are semantic: they
// inspect the computed least fixpoint, not the syntax, so a rule guarded by
// an unsatisfiable condition is found even if it looks plausible. Dead
// rules are reported in their normalized form (the form the engine runs).
func (db *Database) Lint() ([]LintFinding, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	sp, err := db.graphLocked(context.Background())
	if err != nil {
		return nil, err
	}
	var out []LintFinding
	for _, r := range db.Engine.UnfiredRules() {
		out = append(out, LintFinding{
			Kind:   "dead-rule",
			Detail: fmt.Sprintf("%s never fires", r.Format(db.Tab())),
		})
	}

	derived := make(map[symbols.PredID]bool)
	markAtoms := func(atoms []facts.AtomID) {
		for _, a := range atoms {
			derived[db.world.AtomPred(a)] = true
		}
	}
	markAtoms(db.Engine.Global().All())
	for _, st := range sp.State {
		markAtoms(db.world.StateAtoms(st))
	}
	for p := range db.Prep.OriginalPreds {
		if !derived[p] {
			info := db.Tab().PredInfo(p)
			arity := info.Arity
			if info.Functional {
				arity++
			}
			out = append(out, LintFinding{
				Kind:   "empty-predicate",
				Detail: fmt.Sprintf("%s/%d holds nowhere", info.Name, arity),
			})
		}
	}
	return out, nil
}
