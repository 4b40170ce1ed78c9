package core

import (
	"errors"
	"fmt"

	"funcdb/internal/ast"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/subst"
)

// Extend adds ground facts (given in surface syntax, e.g. "Meets(4, ann).")
// to the database and brings every compiled representation up to date.
//
// Least fixpoints are monotone in the database, so when the new facts stay
// within what the program was compiled for, the engine's state is simply
// extended and re-solved — no recomputation from scratch. That includes a
// ground term deeper than any the program had: the engine extends its anchor
// region along the term, and the ground depth c and Algorithm Q's seed depth
// grow by the same amount. What forces a full recompile is what changes the
// program itself: a new constant in a program with mixed function symbols
// (the §2.4 elimination must be redone over the larger domain), or a
// predicate or function symbol the program has never used (the observable
// predicates and the alphabet change). Extend handles both transparently;
// either way the graph/equational/temporal/canonical views are rebuilt
// lazily on next access. The facts are parsed against the database's own
// symbol table and judged against its signature, so the work before the
// engine is linear in the facts, not in the program. A failed Extend leaves
// the database as it was.
func (db *Database) Extend(factsSrc string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	facts, err := parser.ParseFactsTab(db.Source.Tab, factsSrc)
	if errors.Is(err, parser.ErrNotFacts) {
		return fmt.Errorf("core: Extend takes facts only")
	}
	if err != nil {
		return err
	}
	if len(facts) == 0 {
		return nil
	}
	batch := &ast.Program{Tab: db.Source.Tab, Facts: facts}
	if err := batch.Validate(); err != nil {
		return err
	}

	n := len(db.Source.Facts)
	db.Source.Facts = append(db.Source.Facts, facts...)
	if fit, depth := db.fits(facts); fit {
		if err = db.absorb(batch); err == nil {
			db.deepen(depth)
			db.Engine.Sweep()
			db.invalidate()
			return nil
		}
	}
	// Either the facts outgrow the compiled program, or the engine took them
	// and failed to re-solve. A rebuild re-solves the extended source from
	// scratch; only if that also fails is the extension rolled back (the
	// engine, which may hold part of the batch, is rebuilt from the source as
	// it was) and the failure reported.
	if rerr := db.recompile(); rerr != nil {
		db.Source.Facts = db.Source.Facts[:n]
		return errors.Join(err, rerr, db.recompile())
	}
	return nil
}

// fits reports whether the compiled program can take the facts as they are —
// no predicate it has not seen, and no new constant if it has mixed symbols —
// and the depth of their deepest ground term. New constants are recorded.
func (db *Database) fits(facts []ast.Atom) (fit bool, depth int) {
	fit = true
	newConst := func(args []ast.DTerm) {
		for _, d := range args {
			if !db.sig.consts[d.Const] {
				db.sig.consts[d.Const] = true
				fit = fit && !db.sig.mixed
			}
		}
	}
	for i := range facts {
		a := &facts[i]
		if !db.Prep.OriginalPreds[a.Pred] {
			fit = false
		}
		newConst(a.Args)
		if a.FT == nil {
			continue
		}
		depth = max(depth, a.FT.Depth())
		for _, app := range a.FT.Apps {
			newConst(app.Args)
		}
	}
	return fit, depth
}

// deepen raises the ground depth c to that of an absorbed batch, and the seed
// depth with it, as preparing the extended source would. Published snapshots
// and specifications keep the Prepared they were built from, so the change
// is made on a copy.
func (db *Database) deepen(depth int) {
	if depth <= db.Prep.C {
		return
	}
	prep := *db.Prep
	prep.SeedDepth += depth - prep.C
	prep.C = depth
	db.Prep, db.Engine.Prep = &prep, &prep
}

// absorb is the monotone path: push the batch into the engine and re-solve.
// It fails before touching the engine when a fact, once its mixed symbols
// are eliminated, steps outside the compiled alphabet.
func (db *Database) absorb(batch *ast.Program) error {
	prepared, err := rewrite.Prepare(batch)
	if err != nil {
		return err
	}
	for i := range prepared.Program.Facts {
		if ft := prepared.Program.Facts[i].FT; ft != nil {
			for _, app := range ft.Apps {
				if !db.sig.funcs[app.Fn] {
					return fmt.Errorf("core: fact %s uses a function symbol outside the compiled alphabet", batch.Facts[i].Format(db.Tab()))
				}
			}
		}
	}
	for i := range prepared.Program.Facts {
		f := &prepared.Program.Facts[i]
		args := constArgs(f)
		if f.FT == nil {
			db.Engine.AddGlobalFact(f.Pred, args)
			continue
		}
		t, ok := subst.GroundFTerm(db.universe, f.FT)
		if !ok {
			return fmt.Errorf("core: fact %s is not ground", f.Format(db.Tab()))
		}
		db.Engine.AddGroundFact(f.Pred, t, args)
	}
	return db.Engine.Solve()
}

// ExtendRules adds rules (surface syntax) to the database and recompiles.
// Unlike fact insertion, new rules change the program itself, so there is
// no monotone fast path; every compiled view is rebuilt.
func (db *Database) ExtendRules(rulesSrc string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	merged := db.Source.Format() + "\n" + rulesSrc
	res, err := parser.Parse(merged)
	if err != nil {
		return err
	}
	if len(res.Queries) != 0 {
		return fmt.Errorf("core: ExtendRules takes rules and facts only")
	}
	fresh, err := FromProgram(res.Program, db.opts)
	if err != nil {
		return err
	}
	// Note: the merged program has a fresh symbol table; adopt it wholesale.
	db.Source = fresh.Source
	db.Prep = fresh.Prep
	db.Engine = fresh.Engine
	db.universe = fresh.universe
	db.world = fresh.world
	db.sig = fresh.sig
	db.invalidate()
	return nil
}

// recompile rebuilds the engine from the (already extended) source program.
func (db *Database) recompile() error {
	fresh, err := FromProgram(db.Source, db.opts)
	if err != nil {
		return err
	}
	db.Prep = fresh.Prep
	db.Engine = fresh.Engine
	db.universe = fresh.universe
	db.world = fresh.world
	db.sig = fresh.sig
	db.invalidate()
	return nil
}

// invalidate drops the lazily built views so they are rebuilt on demand.
// Published snapshots are unaffected (they stay valid as of their creation);
// only the cached pointer is cleared so the next Snapshot call rebuilds.
func (db *Database) invalidate() {
	db.graph = nil
	db.eq = nil
	db.lasso = nil
	db.canon = nil
	db.snap.Store(nil)
}
