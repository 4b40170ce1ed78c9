package symbols

// Namer is the read-only naming surface shared by *Table and *Scratch.
// Rendering code (ast formatting, term printing, answer serialization)
// accepts a Namer so it works both against a live table and against a
// query-local scratch overlay.
type Namer interface {
	PredName(p PredID) string
	PredInfo(p PredID) PredInfo
	FuncName(f FuncID) string
	ConstName(c ConstID) string
	VarName(v VarID) string
	LookupFunc(name string, dataArity int) (FuncID, bool)
}

// Interner is the interning surface the query parser needs. Both *Table
// and *Scratch implement it; parsing a query against a Scratch leaves the
// underlying frozen table untouched.
type Interner interface {
	Namer
	Pred(name string, arity int, functional bool) PredID
	LookupPred(name string, arity int, functional bool) (PredID, bool)
	Func(name string, dataArity int) FuncID
	Const(name string) ConstID
	Var(name string) VarID
}

var (
	_ Interner = (*Table)(nil)
	_ Interner = (*Scratch)(nil)
)

// Clone returns a deep copy of t: mutations of the copy (or the original)
// are invisible to the other. Snapshots clone the table once at freeze time
// so concurrent writers can keep interning into the live table.
func (t *Table) Clone() *Table {
	out := &Table{
		preds:       append([]PredInfo(nil), t.preds...),
		predByKey:   make(map[PredInfo]PredID, len(t.predByKey)),
		funcs:       append([]FuncInfo(nil), t.funcs...),
		funcByKey:   make(map[funcKey]FuncID, len(t.funcByKey)),
		consts:      append([]string(nil), t.consts...),
		constByName: make(map[string]ConstID, len(t.constByName)),
		vars:        append([]string(nil), t.vars...),
		varByName:   make(map[string]VarID, len(t.varByName)),
		fresh:       t.fresh,
	}
	for k, v := range t.predByKey {
		out.predByKey[k] = v
	}
	for k, v := range t.funcByKey {
		out.funcByKey[k] = v
	}
	for k, v := range t.constByName {
		out.constByName[k] = v
	}
	for k, v := range t.varByName {
		out.varByName[k] = v
	}
	return out
}

// Scratch is a query-local interning overlay over a frozen Table. Lookups
// hit the frozen base first; novel symbols are interned into the scratch
// with identifiers continuing past the base lengths, so identifiers from
// base and scratch never collide. The base is only read, never written —
// any number of Scratch values may share one frozen base concurrently, but
// a single Scratch is not safe for concurrent use.
type Scratch struct {
	base *Table

	preds     []PredInfo
	predByKey map[PredInfo]PredID

	funcs     []FuncInfo
	funcByKey map[funcKey]FuncID

	consts      []string
	constByName map[string]ConstID

	vars      []string
	varByName map[string]VarID
}

// NewScratch returns an empty overlay over the frozen base table.
func NewScratch(base *Table) *Scratch { return &Scratch{base: base} }

// Base returns the frozen table under the overlay.
func (s *Scratch) Base() *Table { return s.base }

// Reset re-points the overlay at base and drops every scratch-local symbol,
// keeping allocated capacity so pooled overlays can be reused without
// allocating.
func (s *Scratch) Reset(base *Table) {
	s.base = base
	s.preds = s.preds[:0]
	s.funcs = s.funcs[:0]
	s.consts = s.consts[:0]
	s.vars = s.vars[:0]
	clear(s.predByKey)
	clear(s.funcByKey)
	clear(s.constByName)
	clear(s.varByName)
}

// HasLocal reports whether any symbol was interned into the overlay (the
// query mentioned identifiers the frozen base does not know).
func (s *Scratch) HasLocal() bool {
	return len(s.preds)+len(s.funcs)+len(s.consts)+len(s.vars) > 0
}

// Pred interns a predicate symbol, preferring the frozen base.
func (s *Scratch) Pred(name string, arity int, functional bool) PredID {
	key := PredInfo{Name: name, Arity: arity, Functional: functional}
	if id, ok := s.base.predByKey[key]; ok {
		return id
	}
	if id, ok := s.predByKey[key]; ok {
		return id
	}
	id := PredID(len(s.base.preds) + len(s.preds))
	s.preds = append(s.preds, key)
	if s.predByKey == nil {
		s.predByKey = make(map[PredInfo]PredID)
	}
	s.predByKey[key] = id
	return id
}

// LookupPred returns the predicate with the given signature, if interned.
func (s *Scratch) LookupPred(name string, arity int, functional bool) (PredID, bool) {
	key := PredInfo{Name: name, Arity: arity, Functional: functional}
	if id, ok := s.base.predByKey[key]; ok {
		return id, true
	}
	id, ok := s.predByKey[key]
	return id, ok
}

// PredInfo returns the description of p, from base or overlay.
func (s *Scratch) PredInfo(p PredID) PredInfo {
	if int(p) < len(s.base.preds) {
		return s.base.preds[p]
	}
	return s.preds[int(p)-len(s.base.preds)]
}

// Func interns a function symbol, preferring the frozen base.
func (s *Scratch) Func(name string, dataArity int) FuncID {
	key := funcKey{name, dataArity}
	if id, ok := s.base.funcByKey[key]; ok {
		return id
	}
	if id, ok := s.funcByKey[key]; ok {
		return id
	}
	id := FuncID(len(s.base.funcs) + len(s.funcs))
	s.funcs = append(s.funcs, FuncInfo{Name: name, DataArity: dataArity})
	if s.funcByKey == nil {
		s.funcByKey = make(map[funcKey]FuncID)
	}
	s.funcByKey[key] = id
	return id
}

// LookupFunc returns the function symbol with the given signature, if interned.
func (s *Scratch) LookupFunc(name string, dataArity int) (FuncID, bool) {
	key := funcKey{name, dataArity}
	if id, ok := s.base.funcByKey[key]; ok {
		return id, true
	}
	id, ok := s.funcByKey[key]
	return id, ok
}

// FuncInfo returns the description of f, from base or overlay.
func (s *Scratch) FuncInfo(f FuncID) FuncInfo {
	if int(f) < len(s.base.funcs) {
		return s.base.funcs[f]
	}
	return s.funcs[int(f)-len(s.base.funcs)]
}

// Const interns a constant, preferring the frozen base.
func (s *Scratch) Const(name string) ConstID {
	if id, ok := s.base.constByName[name]; ok {
		return id
	}
	if id, ok := s.constByName[name]; ok {
		return id
	}
	id := ConstID(len(s.base.consts) + len(s.consts))
	s.consts = append(s.consts, name)
	if s.constByName == nil {
		s.constByName = make(map[string]ConstID)
	}
	s.constByName[name] = id
	return id
}

// ConstName returns the name of c, from base or overlay.
func (s *Scratch) ConstName(c ConstID) string {
	if int(c) < len(s.base.consts) {
		return s.base.consts[c]
	}
	return s.consts[int(c)-len(s.base.consts)]
}

// Var interns a variable name, preferring the frozen base.
func (s *Scratch) Var(name string) VarID {
	if id, ok := s.base.varByName[name]; ok {
		return id
	}
	if id, ok := s.varByName[name]; ok {
		return id
	}
	id := VarID(len(s.base.vars) + len(s.vars))
	s.vars = append(s.vars, name)
	if s.varByName == nil {
		s.varByName = make(map[string]VarID)
	}
	s.varByName[name] = id
	return id
}

// VarName returns the name of v, from base or overlay.
func (s *Scratch) VarName(v VarID) string {
	if int(v) < len(s.base.vars) {
		return s.base.vars[v]
	}
	return s.vars[int(v)-len(s.base.vars)]
}

// PredName returns the bare name of p.
func (s *Scratch) PredName(p PredID) string { return s.PredInfo(p).Name }

// FuncName returns the bare name of f.
func (s *Scratch) FuncName(f FuncID) string { return s.FuncInfo(f).Name }

// AppendTo interns every scratch-local symbol into t, in identifier order.
// When t is a Clone of the scratch's base, the resulting identifiers equal
// the scratch identifiers, so ASTs built against the scratch remain valid
// against t — this is how a query parsed lock-free is handed to a private
// recompilation. It panics if the identifiers diverge (t was not a clone of
// the base, or symbols were interned into t since the clone).
func (s *Scratch) AppendTo(t *Table) {
	for i, info := range s.preds {
		want := PredID(len(s.base.preds) + i)
		if got := t.Pred(info.Name, info.Arity, info.Functional); got != want {
			panic("symbols: Scratch.AppendTo target is not a clone of the base table")
		}
	}
	for i, info := range s.funcs {
		want := FuncID(len(s.base.funcs) + i)
		if got := t.Func(info.Name, info.DataArity); got != want {
			panic("symbols: Scratch.AppendTo target is not a clone of the base table")
		}
		if info.Derived {
			t.funcs[want].Derived = true
		}
	}
	for i, name := range s.consts {
		want := ConstID(len(s.base.consts) + i)
		if got := t.Const(name); got != want {
			panic("symbols: Scratch.AppendTo target is not a clone of the base table")
		}
	}
	for i, name := range s.vars {
		want := VarID(len(s.base.vars) + i)
		if got := t.Var(name); got != want {
			panic("symbols: Scratch.AppendTo target is not a clone of the base table")
		}
	}
}

// Thaw returns a fresh mutable Table containing the frozen base plus every
// scratch-local symbol, with identical identifiers. Private recompilation
// (query.Compile against a snapshot) runs over a thawed table.
func (s *Scratch) Thaw() *Table {
	t := s.base.Clone()
	s.AppendTo(t)
	return t
}

// Overlay is the way back from a private recompilation: a Namer for every
// function symbol and constant of t — the symbols a ground answer is made
// of — that shares base and holds only what t gained since it was cloned
// from it, so t itself can be dropped. When t gained none it is base.
// Predicates and variables beyond base are not carried over.
func (t *Table) Overlay(base *Table) Namer {
	if len(t.funcs) == len(base.funcs) && len(t.consts) == len(base.consts) {
		return base
	}
	s := NewScratch(base)
	s.funcs = append(s.funcs, t.funcs[len(base.funcs):]...)
	s.funcByKey = make(map[funcKey]FuncID, len(s.funcs))
	for i, info := range s.funcs {
		s.funcByKey[funcKey{info.Name, info.DataArity}] = FuncID(len(base.funcs) + i)
	}
	s.consts = append(s.consts, t.consts[len(base.consts):]...)
	return s
}
