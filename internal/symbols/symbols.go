// Package symbols provides interned symbol tables for functional deductive
// databases: predicate, function, constant and variable symbols.
//
// Interning gives every symbol a small dense integer identity so that the
// rest of the system (terms, atoms, fact stores, specification automata) can
// compare and hash symbols as integers. A single Table is shared by a
// Program and everything derived from it.
package symbols

import (
	"fmt"
	"strings"
)

// PredID identifies an interned predicate symbol.
type PredID int32

// FuncID identifies an interned function symbol. Pure function symbols are
// unary (one functional argument, no data arguments); mixed function symbols
// additionally carry DataArity >= 1 non-functional arguments.
type FuncID int32

// ConstID identifies an interned non-functional (data) constant.
type ConstID int32

// VarID identifies an interned variable name. Variables are partitioned
// into functional and non-functional ones by the Program validator, not by
// the table itself.
type VarID int32

// NoPred, NoFunc, NoConst and NoVar are sentinel "absent" identifiers.
const (
	NoPred  PredID  = -1
	NoFunc  FuncID  = -1
	NoConst ConstID = -1
	NoVar   VarID   = -1
)

// PredInfo describes an interned predicate symbol.
type PredInfo struct {
	Name string
	// Arity is the number of non-functional arguments. A functional
	// predicate P of paper-arity k has Arity == k-1 here, because its
	// functional argument is held separately.
	Arity int
	// Functional reports whether the predicate has a functional argument
	// in the distinguished (first) position.
	Functional bool
}

// FuncInfo describes an interned function symbol.
type FuncInfo struct {
	Name string
	// DataArity is the number of non-functional arguments. 0 means the
	// symbol is pure (unary). Mixed symbols (DataArity >= 1) are removed
	// by the rewrite.EliminateMixed transformation before evaluation.
	DataArity int
	// Derived marks symbols introduced by program transformations
	// (for example ext_a created from mixed ext and constant a).
	Derived bool
}

// Table interns predicate, function, constant and variable symbols.
// The zero value is ready to use. A Table is not safe for concurrent
// mutation; share it read-only after the program is built. A newly interned
// name is copied, so a caller may pass a substring of a large source text
// (the lexer does) without the table pinning that text.
type Table struct {
	preds     []PredInfo
	predByKey map[PredInfo]PredID

	funcs     []FuncInfo
	funcByKey map[funcKey]FuncID

	consts      []string
	constByName map[string]ConstID

	vars      []string
	varByName map[string]VarID

	fresh int // counter for fresh generated names
}

// NewTable returns an empty symbol table.
func NewTable() *Table {
	return &Table{
		predByKey:   make(map[PredInfo]PredID),
		funcByKey:   make(map[funcKey]FuncID),
		constByName: make(map[string]ConstID),
		varByName:   make(map[string]VarID),
	}
}

// funcKey is a function symbol's signature. Both signature maps are keyed
// on comparable structs (a predicate's is its PredInfo), so a lookup hashes
// the name in place and allocates nothing — the query parser interns one
// function symbol per application.
type funcKey struct {
	name      string
	dataArity int
}

// Pred interns a predicate symbol with the given number of non-functional
// arguments and functionality flag. Predicates with the same name but
// different arity or functionality are distinct symbols.
func (t *Table) Pred(name string, arity int, functional bool) PredID {
	key := PredInfo{Name: name, Arity: arity, Functional: functional}
	if id, ok := t.predByKey[key]; ok {
		return id
	}
	key.Name = strings.Clone(name)
	id := PredID(len(t.preds))
	t.preds = append(t.preds, key)
	t.predByKey[key] = id
	return id
}

// LookupPred returns the predicate with the given signature, if interned.
func (t *Table) LookupPred(name string, arity int, functional bool) (PredID, bool) {
	id, ok := t.predByKey[PredInfo{Name: name, Arity: arity, Functional: functional}]
	return id, ok
}

// PredInfo returns the description of p.
func (t *Table) PredInfo(p PredID) PredInfo { return t.preds[p] }

// NumPreds returns the number of interned predicates.
func (t *Table) NumPreds() int { return len(t.preds) }

// Func interns a function symbol with the given number of non-functional
// arguments (0 for a pure unary symbol).
func (t *Table) Func(name string, dataArity int) FuncID {
	key := funcKey{name, dataArity}
	if id, ok := t.funcByKey[key]; ok {
		return id
	}
	key.name = strings.Clone(name)
	id := FuncID(len(t.funcs))
	t.funcs = append(t.funcs, FuncInfo{Name: key.name, DataArity: dataArity})
	t.funcByKey[key] = id
	return id
}

// DerivedFunc interns a pure function symbol created by a transformation.
func (t *Table) DerivedFunc(name string) FuncID {
	id := t.Func(name, 0)
	t.funcs[id].Derived = true
	return id
}

// LookupFunc returns the function symbol with the given signature, if interned.
func (t *Table) LookupFunc(name string, dataArity int) (FuncID, bool) {
	id, ok := t.funcByKey[funcKey{name, dataArity}]
	return id, ok
}

// FuncInfo returns the description of f.
func (t *Table) FuncInfo(f FuncID) FuncInfo { return t.funcs[f] }

// NumFuncs returns the number of interned function symbols.
func (t *Table) NumFuncs() int { return len(t.funcs) }

// PureFuncs returns the identifiers of all pure (DataArity == 0) function
// symbols, in interning order.
func (t *Table) PureFuncs() []FuncID {
	var out []FuncID
	for i, fi := range t.funcs {
		if fi.DataArity == 0 {
			out = append(out, FuncID(i))
		}
	}
	return out
}

// Const interns a non-functional constant.
func (t *Table) Const(name string) ConstID {
	if id, ok := t.constByName[name]; ok {
		return id
	}
	name = strings.Clone(name)
	id := ConstID(len(t.consts))
	t.consts = append(t.consts, name)
	t.constByName[name] = id
	return id
}

// LookupConst returns the constant with the given name, if interned.
func (t *Table) LookupConst(name string) (ConstID, bool) {
	id, ok := t.constByName[name]
	return id, ok
}

// ConstName returns the name of c.
func (t *Table) ConstName(c ConstID) string { return t.consts[c] }

// NumConsts returns the number of interned constants.
func (t *Table) NumConsts() int { return len(t.consts) }

// Var interns a variable name.
func (t *Table) Var(name string) VarID {
	if id, ok := t.varByName[name]; ok {
		return id
	}
	name = strings.Clone(name)
	id := VarID(len(t.vars))
	t.vars = append(t.vars, name)
	t.varByName[name] = id
	return id
}

// VarName returns the name of v.
func (t *Table) VarName(v VarID) string { return t.vars[v] }

// NumVars returns the number of interned variables.
func (t *Table) NumVars() int { return len(t.vars) }

// FreshVar interns a new variable whose name does not collide with any
// existing variable. The hint is used as a name prefix.
func (t *Table) FreshVar(hint string) VarID {
	for {
		t.fresh++
		name := fmt.Sprintf("%s_%d", hint, t.fresh)
		if _, ok := t.varByName[name]; !ok {
			return t.Var(name)
		}
	}
}

// FreshPred interns a new predicate whose name does not collide with any
// existing predicate of the same signature. The hint is used as a prefix.
func (t *Table) FreshPred(hint string, arity int, functional bool) PredID {
	for {
		t.fresh++
		name := fmt.Sprintf("%s_%d", hint, t.fresh)
		if _, ok := t.LookupPred(name, arity, functional); !ok {
			return t.Pred(name, arity, functional)
		}
	}
}

// PredName returns the bare name of p.
func (t *Table) PredName(p PredID) string { return t.preds[p].Name }

// FuncName returns the bare name of f.
func (t *Table) FuncName(f FuncID) string { return t.funcs[f].Name }
