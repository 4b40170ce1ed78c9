package core

import (
	"cmp"
	"context"
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
// either way the graph specification is rebuilt lazily on next access. The facts are parsed against the database's own
// symbol table and judged against its signature, so the work before the
// engine is linear in the facts, not in the program. A failed Extend leaves
// the database as it was.
func (db *Database) Extend(factsSrc string) error {
	return db.ExtendCommit(context.Background(), factsSrc, func() error { return nil })
}

// ExtendCommit is Extend under ctx with a commit step — normally journaling
// the facts — run under the database lock once the facts are applied and
// before any reader can see them: the published snapshot stays the one
// readers get until commit returns nil, and only then is it invalidated. If
// the re-solve runs out of ctx or commit refuses, the facts are rolled back
// before the lock is released (the engine is rebuilt from the source as it
// was) and the error returned, so a refused mutation is never served. commit
// runs even when the text holds no facts, and it must not call back into the
// database.
func (db *Database) ExtendCommit(ctx context.Context, factsSrc string, commit func() error) error {
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
		return commit()
	}
	batch := &ast.Program{Tab: db.Source.Tab, Facts: facts}
	if err := batch.Validate(); err != nil {
		return err
	}

	n := len(db.Source.Facts)
	db.Source.Facts = append(db.Source.Facts, facts...)
	if err = db.apply(ctx, facts, batch); err == nil {
		err = commit()
	}
	if err != nil {
		db.Source.Facts = db.Source.Facts[:n]
		return errors.Join(err, db.recompile())
	}
	db.invalidate()
	return nil
}

// apply brings the engine up to date with facts just appended to the
// source. Least fixpoints are monotone, so facts that fit the compiled
// program are absorbed; otherwise, or if the engine took them and failed to
// re-solve for any reason but ctx's, a rebuild re-solves the extended source
// from scratch — unless ctx has ended, which refuses the batch anyway. On
// error the engine may hold part of the batch: the caller truncates the
// source and recompiles.
func (db *Database) apply(ctx context.Context, facts []ast.Atom, batch *ast.Program) error {
	fit, depth := db.fits(facts)
	var err error
	if fit {
		if err = db.absorb(ctx, batch); err == nil {
			db.deepen(depth)
			db.Engine.Sweep()
			db.dropViews()
			return nil
		}
	}
	if ctx.Err() != nil {
		return cmp.Or(err, ctx.Err())
	}
	if rerr := db.recompile(); rerr != nil {
		return errors.Join(err, rerr)
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

// absorb is the monotone path: push the batch into the engine and re-solve
// under ctx. It fails before touching the engine when a fact, once its mixed
// symbols are eliminated, steps outside the compiled alphabet.
func (db *Database) absorb(ctx context.Context, batch *ast.Program) error {
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
	db.Engine.SetContext(ctx)
	defer db.Engine.SetContext(nil)
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

// recompile rebuilds the engine from the source program. It leaves the
// published snapshot in place: the caller invalidates it once the change is
// committed.
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
	db.dropViews()
	return nil
}

// invalidate drops the lazily built graph specification and the published
// snapshot so they are rebuilt on demand. Published snapshots are unaffected (they stay
// valid as of their creation); only the cached pointer is cleared so the
// next Snapshot call rebuilds.
func (db *Database) invalidate() {
	db.dropViews()
	db.snap.Store(nil)
}

// dropViews drops the graph specification built from the live engine,
// which only the lock holder reads; readers without the lock go through the
// snapshot.
func (db *Database) dropViews() {
	if db.graph != nil {
		db.reps = db.graph.NumStates()
	}
	db.graph, db.build = nil, nil
}
