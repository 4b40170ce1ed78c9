package parser

import (
	"math"
	"strings"

	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// GroundSink receives a ground query from ReadGround as the text is read:
// atom by atom and, in a functional term, application by application,
// innermost first. Names are substrings of the text (a numeral's, its digits
// less leading zeros: its value as the tree parser names it); ids are the
// table's, NoFunc, NoConst or NoPred where the table lacks the symbol.
// Function symbols are named only: what an application stands for is its
// name and its constants' names, as the shape spells it.
type GroundSink interface {
	// Reset drops everything received: the reader starts the text over.
	Reset()
	// Atom begins an atom, naming its predicate as a shape does: by name,
	// data arity and functionality. A functional atom's term comes next,
	// depth applications long but for +n sugar after a closing parenthesis.
	Atom(name string, arity int, functional bool, depth int)
	// Succ receives n applications of succ (a numeral, or +n sugar).
	Succ(fn symbols.FuncID, n int)
	// App receives an application of the function symbol called name. Its
	// constants come next, by AppArg; it ends where the next App, Succ or
	// EndTerm begins.
	App(name string)
	// AppArg receives a constant of the application App received last.
	AppArg(name string)
	// EndTerm closes a functional atom's term.
	EndTerm()
	// Arg receives the atom's next data argument.
	Arg(name string, id symbols.ConstID)
	// End closes the atom of predicate pred.
	End(pred symbols.PredID)
}

// ReadGround lowers a ground query as it lexes it: one pass over src, with
// predicates and data constants looked up in tab as they are met (tab is
// never changed) and every atom and application handed to sink.
// There is no tree and no inference pass: against a table, a ground query's
// typing is known atom by atom.
//
// It declines, reporting false, exactly the texts ParseQueryTab does not
// parse into a ground query: an open query (one with a variable), and a
// malformed text, whose error is the tree parser's to report. (And a text
// past 2 GiB, whose offsets the reader keeps in 32 bits.) What sink received
// from a declined text means nothing.
//
// Two things the tree parser infers from the whole text the reader learns as
// it goes, and for them alone it may read the text a second time, after a
// Reset: a functional atom's data arity, which Atom needs before the term
// and the text gives after it (the table's arity is the reader's guess), and
// whether a predicate the table lacks is functional — it is when any atom of
// it has an application or +n sugar in its first argument, and an atom of it
// may come before that one. The first pass learns both for every atom, so
// there is never a third.
func ReadGround(tab *symbols.Table, src string, sink GroundSink) bool {
	if len(src) > math.MaxInt32 {
		return false
	}
	// The reader stays on the stack, so that what it writes per token costs
	// no write barrier; the stack of open applications is its one allocation
	// but for what a first pass learns.
	r := groundReader{parser: parser{src: src}, tab: tab, sink: sink}
	r.stack = make([]appName, 0, strings.Count(src, "("))
	for pass := 0; pass < 2; pass++ {
		if !r.query() {
			return false
		}
		if !r.again {
			return true
		}
		r.pos, r.atoms, r.again = 0, 0, false
		sink.Reset()
	}
	return false // unreachable: a second pass learns nothing
}

type groundReader struct {
	parser // the lexer: src, pos, tok
	tab    *symbols.Table
	sink   GroundSink
	stack  []appName // the open applications, outermost first
	consts symCache
	succ   symbols.FuncID
	succOK bool

	// What a pass learns that the table does not say: how the text types
	// the predicates the table lacks (true: functional), and the data arity
	// of each functional atom whose guess was wrong (-1 where it was right),
	// by the atom's place in the text.
	atoms  int
	locals map[predKey]bool
	arity  []int
	again  bool // the pass learned something: the next one reads with it
}

// appName is where an open application's function symbol is named.
type appName struct{ off, n int32 }

// next lexes the next token. What a deep term repeats at every layer — a
// punctuation mark right after the last token, an identifier after one
// space — is taken here without a call into the lexer, as the lexer would
// take it; anything else is the lexer's.
func (r *groundReader) next() bool {
	src, i := r.src, r.pos
	if i < len(src) && src[i] == ' ' {
		i++
	}
	if i < len(src) {
		c := src[i]
		if k := punct[c]; k != tokEOF && i == r.pos {
			r.tok.kind, r.tok.off, r.pos = k, i, i+1
			return true
		}
		if identClass[c]&identStart != 0 {
			end := i + 1
			for end < len(src) && identClass[src[end]]&identPart != 0 {
				end++
			}
			r.tok.kind, r.tok.off, r.tok.n, r.pos = tokIdent, i, int32(end-i), end
			return true
		}
	}
	return r.advance() == nil
}

func (r *groundReader) query() bool {
	if !r.next() || r.tok.kind != tokQuery || !r.next() {
		return false
	}
	for {
		if !r.atom() {
			return false
		}
		r.atoms++
		if r.tok.kind != tokComma {
			break
		}
		if !r.next() {
			return false
		}
	}
	return r.tok.kind == tokDot && r.next() && r.tok.kind == tokEOF
}

// atom reads one atom. Its first argument's applications and base come
// first: an application or +n sugar there makes the atom functional, and
// its term is handed on as its parentheses close. Otherwise every argument
// is one token, and the atom is read whole before its predicate is typed.
func (r *groundReader) atom() bool {
	if r.tok.kind != tokIdent {
		return false
	}
	name := r.name(r.tok.off, r.tok.n)
	if !r.next() {
		return false
	}
	if r.tok.kind != tokLParen {
		pred, _ := r.pred(name, 0)
		r.sink.Atom(name, 0, false, 0)
		r.sink.End(pred)
		return true
	}
	if !r.next() {
		return false
	}
	r.stack = r.stack[:0]
	var base token
	for {
		if r.tok.kind != tokIdent && r.tok.kind != tokNumber {
			return false
		}
		base = r.tok
		if !r.next() {
			return false
		}
		if base.kind != tokIdent || r.tok.kind != tokLParen {
			break
		}
		if len(r.stack) == MaxTermDepth {
			return false
		}
		r.stack = append(r.stack, appName{int32(base.off), base.n})
		if !r.next() {
			return false
		}
	}
	if base.kind == tokIdent && isVarStart(r.src[base.off]) {
		return false
	}
	plus, ok := r.plus()
	if !ok {
		return false
	}
	if len(r.stack) == 0 && plus == 0 {
		return r.flatAtom(name, base)
	}
	return r.termAtom(name, base, plus)
}

// flatAtom reads the rest of an atom whose first argument is the single
// token first.
func (r *groundReader) flatAtom(name string, first token) bool {
	var buf [4]token
	args := buf[:0]
	for r.tok.kind == tokComma {
		t, ok := r.constArg()
		if !ok {
			return false
		}
		args = append(args, t)
	}
	if r.tok.kind != tokRParen || !r.next() {
		return false
	}
	total := 1 + len(args)
	pred, functional := r.pred(name, total)
	if pred == symbols.NoPred {
		functional = r.local(predKey{name, total}, false)
	}
	if functional {
		if first.kind != tokNumber || first.num > MaxTermDepth {
			return false
		}
		r.sink.Atom(name, total-1, true, first.num)
		if first.num > 0 {
			r.sink.Succ(r.succFn(), first.num)
		}
		r.sink.EndTerm()
	} else {
		r.sink.Atom(name, total, false, 0)
		r.sink.Arg(r.constant(first))
	}
	for _, t := range args {
		r.sink.Arg(r.constant(t))
	}
	r.sink.End(pred)
	return true
}

// termAtom reads the rest of a functional atom: the applications on the
// stack closed innermost first, then the data arguments.
func (r *groundReader) termAtom(name string, base token, plus int) bool {
	if base.kind != tokNumber {
		return false // a constant in a functional position
	}
	depth := len(r.stack) + base.num + plus
	if depth > MaxTermDepth {
		return false
	}
	guess := r.arityGuess(name)
	r.sink.Atom(name, guess, true, depth)
	if n := base.num + plus; n > 0 {
		r.sink.Succ(r.succFn(), n)
	}
	for j := len(r.stack) - 1; j >= 0; j-- {
		a := r.stack[j]
		r.sink.App(r.name(int(a.off), a.n))
		for r.tok.kind == tokComma {
			t, ok := r.constArg()
			if !ok {
				return false
			}
			r.sink.AppArg(r.constName(t))
		}
		if r.tok.kind != tokRParen || !r.next() {
			return false
		}
		plus, ok := r.plus()
		if !ok {
			return false
		}
		if depth += plus; depth > MaxTermDepth {
			return false
		}
		if plus > 0 {
			r.sink.Succ(r.succFn(), plus)
		}
	}
	r.sink.EndTerm()
	arity := 0
	for ; r.tok.kind == tokComma; arity++ {
		t, ok := r.constArg()
		if !ok {
			return false
		}
		r.sink.Arg(r.constant(t))
	}
	if r.tok.kind != tokRParen || !r.next() {
		return false
	}
	pred, functional := r.pred(name, arity+1)
	switch {
	case pred == symbols.NoPred:
		r.local(predKey{name, arity + 1}, true)
	case !functional:
		return false // the table has the predicate with no functional argument
	}
	if arity != guess {
		for len(r.arity) <= r.atoms {
			r.arity = append(r.arity, -1)
		}
		r.arity[r.atoms], r.again = arity, true
	}
	r.sink.End(pred)
	return true
}

// constArg reads ", c" and returns c: a constant or a numeral, whose +n
// sugar may add up to nothing; anything more belongs in a functional
// position.
func (r *groundReader) constArg() (token, bool) {
	if !r.next() {
		return token{}, false
	}
	t := r.tok
	if t.kind != tokIdent && t.kind != tokNumber || !r.next() {
		return token{}, false
	}
	if t.kind == tokIdent && (isVarStart(r.src[t.off]) || r.tok.kind == tokLParen) {
		return token{}, false
	}
	if plus, ok := r.plus(); !ok || plus > 0 {
		return token{}, false
	}
	return t, true
}

// plus reads a run of +n sugar, if any, and returns its sum, which saturates
// just past MaxTermDepth as the tree parser's does.
func (r *groundReader) plus() (int, bool) {
	sum := 0
	for r.tok.kind == tokPlus {
		if !r.next() || r.tok.kind != tokNumber {
			return 0, false
		}
		if sum <= MaxTermDepth {
			sum += r.tok.num
		}
		if !r.next() {
			return 0, false
		}
	}
	return sum, true
}

// pred types a predicate the way the tree parser does for a standalone
// query: by the table, the later-interned signature winning should it hold
// both. It returns NoPred when the table lacks the predicate.
func (r *groundReader) pred(name string, total int) (symbols.PredID, bool) {
	f, fok := r.tab.LookupPred(name, total-1, true)
	d, dok := r.tab.LookupPred(name, total, false)
	switch {
	case fok && (!dok || f > d):
		return f, true
	case dok:
		return d, false
	}
	return symbols.NoPred, false
}

// local records an atom of a predicate the table lacks, functional when its
// first argument says so, and returns whether the text makes the predicate
// functional as far as this pass has read. An atom read as data before one
// that makes its predicate functional has the pass read again.
func (r *groundReader) local(key predKey, functional bool) bool {
	if r.locals == nil {
		r.locals = make(map[predKey]bool)
	}
	was, seen := r.locals[key]
	switch {
	case !functional:
		if !seen {
			r.locals[key] = false
		}
		return was
	case seen && !was:
		r.again = true
	}
	r.locals[key] = true
	return true
}

// arityGuess is the data arity the functional atom of name read next has:
// what the last pass counted where it differed from the guess, else the
// smallest arity the table gives a functional predicate of that name, among
// the few programs use.
func (r *groundReader) arityGuess(name string) int {
	if r.atoms < len(r.arity) && r.arity[r.atoms] >= 0 {
		return r.arity[r.atoms]
	}
	for k := 0; k < 4; k++ {
		if _, ok := r.tab.LookupPred(name, k, true); ok {
			return k
		}
	}
	return 0
}

// constName returns the name of the constant t: a numeral's digits less
// leading zeros.
func (r *groundReader) constName(t token) string {
	off, n := t.off, int(t.n)
	if t.kind == tokNumber {
		for n > 1 && r.src[off] == '0' {
			off, n = off+1, n-1
		}
	}
	return r.src[off : off+n]
}

// constant returns the name of the constant t and its id in the table.
func (r *groundReader) constant(t token) (string, symbols.ConstID) {
	name := r.constName(t)
	s, hit := r.consts.lookup(name, 0)
	if !hit {
		id, ok := r.tab.LookupConst(name)
		if !ok {
			id = symbols.NoConst
		}
		s.name, s.arity, s.id = name, 0, int32(id)
	}
	return name, symbols.ConstID(s.id)
}

func (r *groundReader) succFn() symbols.FuncID {
	if !r.succOK {
		id, ok := r.tab.LookupFunc(term.SuccName, 0)
		if !ok {
			id = symbols.NoFunc
		}
		r.succ, r.succOK = id, true
	}
	return r.succ
}
