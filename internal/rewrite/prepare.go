package rewrite

import (
	"fmt"

	"funcdb/internal/ast"
	"funcdb/internal/symbols"
)

// Prepared is the output of the preparation pipeline: a validated,
// normalized, pure (mixed-free) program ready for evaluation, together with
// the metadata the specification builders need.
type Prepared struct {
	// Program is the normalized, mixed-free program. It shares the
	// original's symbol table.
	Program *ast.Program
	// Original is the program Prepare was given.
	Original *ast.Program
	// OriginalPreds holds the predicates of the original program; the
	// helper predicates introduced by normalization are excluded, and
	// specifications and answers are restricted to this set. It is read-only
	// once Prepare returns: every frozen specification shares it.
	OriginalPreds map[symbols.PredID]bool
	// C is the paper's parameter c, computed on the original program: the
	// depth of the largest fully ground functional term (section 2.5).
	C int
	// SeedDepth is the depth at which Algorithm Q seeds its breadth-first
	// exploration: c+1 in general, improved to c for temporal programs
	// (footnote 3 of the paper).
	SeedDepth int
	// Temporal reports whether the original program is temporal: its only
	// function symbol is the successor +1.
	Temporal bool
	// Funcs are the pure function symbols of the prepared program, in a
	// deterministic order. These are the successor alphabet of the
	// quotient automaton.
	Funcs []symbols.FuncID
}

// Prepare validates p, checks domain-independence, normalizes its rules and
// eliminates mixed function symbols. p itself is not modified, but derived
// symbols are interned into its symbol table.
func Prepare(p *ast.Program) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for i := range p.Rules {
		if !p.Rules[i].IsRangeRestricted() {
			return nil, fmt.Errorf("rule %s is not range-restricted: the program is domain-dependent and its least fixpoint has no finite specification", p.Rules[i].Format(p.Tab))
		}
	}
	c := p.GroundDepth()
	temporal := p.IsTemporal()

	norm, err := Normalize(p)
	if err != nil {
		return nil, err
	}
	pure, err := EliminateMixed(norm)
	if err != nil {
		return nil, err
	}
	if pure.HasMixed() {
		return nil, fmt.Errorf("internal: mixed symbols survived elimination")
	}
	if !pure.IsNormal() {
		return nil, fmt.Errorf("internal: normalization did not produce normal rules")
	}

	orig := make(map[symbols.PredID]bool)
	p.Atoms(func(a *ast.Atom) { orig[a.Pred] = true })

	seed := c + 1
	if temporal {
		seed = c
	}
	return &Prepared{
		Program:       pure,
		Original:      p,
		OriginalPreds: orig,
		C:             c,
		SeedDepth:     seed,
		Temporal:      temporal,
		Funcs:         pure.FuncsUsed(),
	}, nil
}
