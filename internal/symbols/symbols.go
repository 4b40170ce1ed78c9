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
	"hash/maphash"
	"strings"

	"funcdb/internal/intern"
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

// Table interns predicate, function, constant and variable symbols; it is
// the package's one store. NewTable makes a root table, which one goroutine
// at a time may grow. Freeze cuts a read-only view of it at its current
// lengths, safe for any number of readers while the root keeps growing.
// NewTableOver makes an overlay: a single-goroutine table whose identifiers
// continue past a frozen view's, for the symbols one query brings. A newly
// interned name is copied, so a caller may pass a substring of a large source
// text (the lexer does) without the table pinning that text.
type Table struct {
	base *Table // the frozen view under an overlay, nil otherwise
	// The base's lengths: the identifiers of preds[0], funcs[0], consts[0]
	// and vars[0].
	loPred, loFunc, loConst, loVar int

	preds  []PredInfo
	predBy intern.Index

	funcs  []FuncInfo
	funcBy intern.Index

	consts  []string
	constBy intern.Index

	vars  []string
	varBy intern.Index

	fresh  int // counter for fresh generated names
	frozen bool
}

// NewTable returns an empty symbol table.
func NewTable() *Table { return &Table{} }

// NewTableOver returns an empty overlay over base, a frozen view of a root
// table. Lookups find base's symbols first; novel ones get identifiers from
// base's lengths on and go with the overlay, so parsing a query against an
// overlay leaves the base untouched. Overlays over one base never see each
// other.
func NewTableOver(base *Table) *Table {
	t := &Table{}
	t.Reset(base)
	return t
}

// Reset re-points an overlay at base and drops every symbol of its own,
// keeping allocated capacity so pooled overlays are reused without
// allocating.
func (t *Table) Reset(base *Table) {
	if !base.frozen || base.base != nil {
		panic("symbols: an overlay needs a frozen view of a root table under it")
	}
	t.base, t.fresh = base, base.fresh
	t.loPred, t.loFunc, t.loConst, t.loVar = base.NumPreds(), base.NumFuncs(), base.NumConsts(), base.NumVars()
	t.preds, t.funcs, t.consts, t.vars = t.preds[:0], t.funcs[:0], t.consts[:0], t.vars[:0]
	t.predBy.Reset()
	t.funcBy.Reset()
	t.constBy.Reset()
	t.varBy.Reset()
}

// HasLocal reports whether an overlay holds any symbol of its own (the query
// mentioned identifiers the frozen base does not know).
func (t *Table) HasLocal() bool {
	return len(t.preds)+len(t.funcs)+len(t.consts)+len(t.vars) > 0
}

// Freeze returns a read-only view of t as it is now: the same record arrays
// cut at their lengths, and the same indexes, which the view reads up to
// those lengths (see package intern). It copies nothing, so t may keep
// growing — appends land past what the view reads. Interning a new symbol
// through the view panics; make an overlay with NewTableOver for that, or a
// private mutable copy with Clone.
func (t *Table) Freeze() *Table {
	v := *t
	v.preds = t.preds[:len(t.preds):len(t.preds)]
	v.funcs = t.funcs[:len(t.funcs):len(t.funcs)]
	v.consts = t.consts[:len(t.consts):len(t.consts)]
	v.vars = t.vars[:len(t.vars):len(t.vars)]
	v.frozen = true
	return &v
}

// Clone returns a root table holding every symbol visible through t — a
// root, a frozen view or an overlay with its base — under the same
// identifiers: mutations of the copy are invisible to t. Private
// recompilation (query.Compile against a snapshot) runs over a clone.
func (t *Table) Clone() *Table {
	out := &Table{fresh: t.fresh}
	for p := 0; p < t.NumPreds(); p++ {
		info := t.PredInfo(PredID(p))
		out.addPred(predHash(info), info)
	}
	for f := 0; f < t.NumFuncs(); f++ {
		info := t.FuncInfo(FuncID(f))
		out.addFunc(funcHash(info.Name, info.DataArity), info)
	}
	for c := 0; c < t.NumConsts(); c++ {
		name := t.ConstName(ConstID(c))
		out.addConst(nameHash(name), name)
	}
	for v := 0; v < t.NumVars(); v++ {
		name := t.VarName(VarID(v))
		out.addVar(nameHash(name), name)
	}
	return out
}

// Overlay is the way back from a private recompilation: a read-only table
// naming every function symbol and constant of t — the symbols a ground
// answer is made of — that shares base and holds only what t gained since it
// was cloned from it, so t itself can be dropped. When t gained none it is
// base. Predicates and variables beyond base are not carried over.
func (t *Table) Overlay(base *Table) *Table {
	if t.NumFuncs() == base.NumFuncs() && t.NumConsts() == base.NumConsts() {
		return base
	}
	o := NewTableOver(base)
	for f := base.NumFuncs(); f < t.NumFuncs(); f++ {
		info := t.FuncInfo(FuncID(f))
		o.addFunc(funcHash(info.Name, info.DataArity), info)
	}
	for c := base.NumConsts(); c < t.NumConsts(); c++ {
		name := t.ConstName(ConstID(c))
		o.addConst(nameHash(name), name)
	}
	o.frozen = true
	return o
}

// checkLive panics when t is a frozen view: what a lookup missed may not be added
// to it.
func (t *Table) checkLive(what string) {
	if t.frozen {
		panic("symbols: new " + what + " interned through a frozen Table")
	}
}

// seed keys the name hashes of this process; identifiers do not depend on
// it, only which slot an index keeps them in.
var seed = maphash.MakeSeed()

func nameHash(name string) uint32 { return intern.Hash(maphash.String(seed, name)) }

func funcHash(name string, dataArity int) uint32 {
	return intern.Hash(maphash.String(seed, name) + uint64(dataArity))
}

func predHash(key PredInfo) uint32 {
	h := maphash.String(seed, key.Name) + uint64(key.Arity)<<1
	if key.Functional {
		h++
	}
	return intern.Hash(h)
}

// findPred looks key up among the base's predicates, then t's own; it
// returns NoPred when neither holds it.
func (t *Table) findPred(h uint32, key PredInfo) PredID {
	if t.base != nil {
		if id := t.base.findPred(h, key); id != NoPred {
			return id
		}
	}
	return PredID(t.predBy.Find(h, int32(t.NumPreds()), func(id int32) bool { return t.preds[int(id)-t.loPred] == key }))
}

func (t *Table) addPred(h uint32, info PredInfo) PredID {
	id := PredID(t.NumPreds())
	t.preds = append(t.preds, info)
	t.predBy.Insert(h, int32(id))
	return id
}

// LookupPred returns the predicate with the given signature, if interned.
// Predicates with the same name but different arity or functionality are
// distinct symbols.
func (t *Table) LookupPred(name string, arity int, functional bool) (PredID, bool) {
	key := PredInfo{Name: name, Arity: arity, Functional: functional}
	id := t.findPred(predHash(key), key)
	return id, id != NoPred
}

// Pred interns a predicate symbol with the given number of non-functional
// arguments and functionality flag.
func (t *Table) Pred(name string, arity int, functional bool) PredID {
	key := PredInfo{Name: name, Arity: arity, Functional: functional}
	h := predHash(key)
	if id := t.findPred(h, key); id != NoPred {
		return id
	}
	t.checkLive("predicate")
	key.Name = strings.Clone(name)
	return t.addPred(h, key)
}

// PredInfo returns the description of p.
func (t *Table) PredInfo(p PredID) PredInfo {
	if int(p) < t.loPred {
		return t.base.preds[p]
	}
	return t.preds[int(p)-t.loPred]
}

// PredName returns the bare name of p.
func (t *Table) PredName(p PredID) string { return t.PredInfo(p).Name }

// NumPreds returns the number of interned predicates.
func (t *Table) NumPreds() int { return t.loPred + len(t.preds) }

// findFunc looks a signature up among the base's function symbols, then t's
// own.
func (t *Table) findFunc(h uint32, name string, dataArity int) int32 {
	if t.base != nil {
		if id := t.base.findFunc(h, name, dataArity); id >= 0 {
			return id
		}
	}
	return t.funcBy.Find(h, int32(t.NumFuncs()), func(id int32) bool {
		info := &t.funcs[int(id)-t.loFunc]
		return info.DataArity == dataArity && info.Name == name
	})
}

func (t *Table) addFunc(h uint32, info FuncInfo) FuncID {
	id := FuncID(t.NumFuncs())
	t.funcs = append(t.funcs, info)
	t.funcBy.Insert(h, int32(id))
	return id
}

// LookupFunc returns the function symbol with the given signature, if
// interned. The lookup hashes the name in place and allocates nothing — the
// query parser makes one per application.
func (t *Table) LookupFunc(name string, dataArity int) (FuncID, bool) {
	id := t.findFunc(funcHash(name, dataArity), name, dataArity)
	return FuncID(id), id >= 0
}

// Func interns a function symbol with the given number of non-functional
// arguments (0 for a pure unary symbol).
func (t *Table) Func(name string, dataArity int) FuncID {
	return t.internFunc(name, dataArity, false)
}

// DerivedFunc interns a pure function symbol created by a transformation.
// The mark is set on the record it creates: a symbol that already exists
// keeps the one it has, for frozen views share the record.
func (t *Table) DerivedFunc(name string) FuncID { return t.internFunc(name, 0, true) }

func (t *Table) internFunc(name string, dataArity int, derived bool) FuncID {
	h := funcHash(name, dataArity)
	if id := t.findFunc(h, name, dataArity); id >= 0 {
		return FuncID(id)
	}
	t.checkLive("function symbol")
	return t.addFunc(h, FuncInfo{Name: strings.Clone(name), DataArity: dataArity, Derived: derived})
}

// FuncInfo returns the description of f.
func (t *Table) FuncInfo(f FuncID) FuncInfo {
	if int(f) < t.loFunc {
		return t.base.funcs[f]
	}
	return t.funcs[int(f)-t.loFunc]
}

// FuncName returns the bare name of f.
func (t *Table) FuncName(f FuncID) string { return t.FuncInfo(f).Name }

// NumFuncs returns the number of interned function symbols.
func (t *Table) NumFuncs() int { return t.loFunc + len(t.funcs) }

// PureFuncs returns the identifiers of all pure (DataArity == 0) function
// symbols, in interning order.
func (t *Table) PureFuncs() []FuncID {
	var out []FuncID
	for f := 0; f < t.NumFuncs(); f++ {
		if t.FuncInfo(FuncID(f)).DataArity == 0 {
			out = append(out, FuncID(f))
		}
	}
	return out
}

// findName looks name up among the names an index of t's covers: its own
// constants or variables, numbered from lo.
func findName(x *intern.Index, names []string, lo int, h uint32, name string) int32 {
	return x.Find(h, int32(lo+len(names)), func(id int32) bool { return names[int(id)-lo] == name })
}

func (t *Table) addConst(h uint32, name string) ConstID {
	id := ConstID(t.NumConsts())
	t.consts = append(t.consts, name)
	t.constBy.Insert(h, int32(id))
	return id
}

// lookupConst returns the constant with the given name, or NoConst.
func (t *Table) lookupConst(h uint32, name string) ConstID {
	if t.base != nil {
		if id := t.base.lookupConst(h, name); id != NoConst {
			return id
		}
	}
	return ConstID(findName(&t.constBy, t.consts, t.loConst, h, name))
}

// LookupConst returns the constant with the given name, if interned.
func (t *Table) LookupConst(name string) (ConstID, bool) {
	id := t.lookupConst(nameHash(name), name)
	return id, id != NoConst
}

// Const interns a non-functional constant.
func (t *Table) Const(name string) ConstID {
	h := nameHash(name)
	if id := t.lookupConst(h, name); id != NoConst {
		return id
	}
	t.checkLive("constant")
	return t.addConst(h, strings.Clone(name))
}

// ConstName returns the name of c.
func (t *Table) ConstName(c ConstID) string {
	if int(c) < t.loConst {
		return t.base.consts[c]
	}
	return t.consts[int(c)-t.loConst]
}

// NumConsts returns the number of interned constants.
func (t *Table) NumConsts() int { return t.loConst + len(t.consts) }

func (t *Table) addVar(h uint32, name string) VarID {
	id := VarID(t.NumVars())
	t.vars = append(t.vars, name)
	t.varBy.Insert(h, int32(id))
	return id
}

// lookupVar returns the variable with the given name, or NoVar.
func (t *Table) lookupVar(h uint32, name string) VarID {
	if t.base != nil {
		if id := t.base.lookupVar(h, name); id != NoVar {
			return id
		}
	}
	return VarID(findName(&t.varBy, t.vars, t.loVar, h, name))
}

// Var interns a variable name.
func (t *Table) Var(name string) VarID {
	h := nameHash(name)
	if id := t.lookupVar(h, name); id != NoVar {
		return id
	}
	t.checkLive("variable")
	return t.addVar(h, strings.Clone(name))
}

// VarName returns the name of v.
func (t *Table) VarName(v VarID) string {
	if int(v) < t.loVar {
		return t.base.vars[v]
	}
	return t.vars[int(v)-t.loVar]
}

// NumVars returns the number of interned variables.
func (t *Table) NumVars() int { return t.loVar + len(t.vars) }

// FreshVar interns a new variable whose name does not collide with any
// existing variable. The hint is used as a name prefix.
func (t *Table) FreshVar(hint string) VarID {
	for {
		t.fresh++
		name := fmt.Sprintf("%s_%d", hint, t.fresh)
		if t.lookupVar(nameHash(name), name) == NoVar {
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
