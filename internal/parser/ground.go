package parser

import (
	"math"
	"math/bits"
	"strings"

	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// GroundSink receives a ground query from ReadGround as the text is read:
// atom by atom and, in a functional term, run by run of applications,
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
	// apps applications spelled in parentheses long, and for the rest runs
	// of succ (Succ).
	Atom(name string, arity int, functional bool, apps int)
	// Succ receives n applications of succ (a numeral, or +n sugar): n is
	// at most MaxTermCount, and so is the term's count of applications.
	Succ(fn symbols.FuncID, n int64)
	// App receives an application of the function symbol called name. Its
	// constants come next, by AppArg; it ends where the next App, Repeat,
	// Succ or EndTerm begins. The reader files it under entry, in
	// [0, LayerSlots), for Repeat to name, replacing what the entry held;
	// entry is -1 when it is not filed.
	App(name string, entry int)
	// AppArg receives a constant of the application App received last.
	AppArg(name string)
	// Layers returns the buffer the reader writes the layers it meets again
	// into, by entry, for Repeat to receive; the reader asks for it once per
	// pass, after any Reset, and may write all of it before a Repeat.
	Layers() []uint8
	// Repeat receives the first n layers of the Layers buffer, innermost
	// first: each an application spelled as the one App filed under its
	// entry — the same function symbol and the same constants, whose text
	// the reader met again byte for byte. Entries last one pass: a Reset
	// empties them.
	Repeat(n int)
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
	r := groundReader{parser: parser{src: src, longNumbers: true}, tab: tab, sink: sink}
	for pass := 0; pass < 2; pass++ {
		r.batch = sink.Layers()
		if !r.query() {
			return false
		}
		if !r.again {
			return true
		}
		r.pos, r.atoms, r.again = 0, 0, false
		r.layers = [LayerSlots]layer{}
		sink.Reset()
	}
	return false // unreachable: a second pass learns nothing
}

type groundReader struct {
	parser // the lexer: src, pos, tok
	tab    *symbols.Table
	sink   GroundSink
	stack  []appRun // the open applications, outermost first
	open   int      // how many: the runs' counts summed
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

	// The layers this pass has filed with the sink, by the hash of their
	// spelling: a deep term repeats a handful for hundreds of layers.
	layers [LayerSlots]layer
	// The sink's buffer of layers met again, by entry, and how many of them
	// it is yet to receive.
	batch  []uint8
	nbatch int
}

// LayerSlots is the number of entries a read files applications under.
const LayerSlots = 1 << layerBits

const layerBits = 4

// layer is a functional term's layer as the text spells it: the name of its
// function symbol, and its closing bytes — from the token after the layer
// beneath it to its ')' — which hold its constants, as in ", e3)". close is
// a substring of the text, "" in an empty entry, and key packs its bytes
// but the ')'.
type layer struct {
	name  appName
	close string
	key   closeKey
}

// closeKey packs up to maxClose bytes, little-endian, eight to a word: the
// first sixteen each in its own byte of w0 and w1, the rest folded into w1
// by xor. With their number, n, two keys of at most sixteen bytes are equal
// exactly when the bytes are. (Two words, not an array: a key is passed and
// returned in registers.)
type closeKey struct {
	w0, w1 uint64
	n      int
}

// maxClose bounds the closing bytes a layer is looked up by.
const maxClose = 64

// readClose packs the bytes of src from off to the first ')', eight at a
// time, and reports whether there is a ')' within maxClose bytes.
func readClose(src string, off int) (k closeKey, ok bool) {
	for i := 0; i < maxClose && off+i < len(src); i += 8 {
		var w uint64
		if p := off + i; p+8 <= len(src) {
			w = load8(src, p)
		} else {
			// A byte past the text reads as 0.
			for j := len(src) - 1; j >= p; j-- {
				w = w<<8 | uint64(src[j])
			}
		}
		z := closeParen(w)
		if z != 0 {
			w, k.n = cutAtParen(w)
			k.n += i
		}
		if i == 0 {
			k.w0 = w
		} else {
			k.w1 ^= w
		}
		if z != 0 {
			return k, true
		}
	}
	return closeKey{}, false
}

// closeParen returns the bytes of w that are ')' with their top bits set,
// the lowest exactly.
func closeParen(w uint64) uint64 {
	t := w ^ 0x2929292929292929
	return (t - 0x0101010101010101) &^ t & 0x8080808080808080
}

// cutAtParen returns the bytes of w before its first ')', and their number.
func cutAtParen(w uint64) (uint64, int) {
	b := bits.TrailingZeros64(closeParen(w)) >> 3
	return w & (1<<(b<<3) - 1), b
}

// appName is where an open application's function symbol is named.
type appName struct{ off, n int32 }

// appRun is a run of open applications of one function symbol: the name
// spelled at name, count times in a row.
type appRun struct {
	name  appName
	count int
}

// load8 returns the eight bytes of s at i, little-endian, in one load.
func load8(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

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
	r.stack, r.open = r.stack[:0], 0
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
		r.push(appName{int32(base.off), base.n})
		if r.open > MaxTermDepth {
			return false
		}
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
	if r.open == 0 && plus == 0 {
		return r.flatAtom(name, base)
	}
	return r.termAtom(name, base, plus)
}

// push opens the application a, whose '(' is the current token, and every
// application of the same name that opens right after it: a deep term
// repeats one for hundreds of layers. Each of those lexes to the same two
// tokens, the name and a '(' — nothing but a '(' ends the identifier, and
// nothing comes before it — so they are taken here, without the lexer, and
// counted into a's run. Past MaxTermDepth, it stops counting.
func (r *groundReader) push(a appName) {
	src, n := r.src, int(a.n)
	count := 1
	if n < 8 {
		// The name and its '(' packed as load8 reads them, to compare in
		// one step.
		pat, mask := uint64('(')<<(n<<3), uint64(1)<<((n+1)<<3)-1
		for i := n - 1; i >= 0; i-- {
			pat |= uint64(src[int(a.off)+i]) << (i << 3)
		}
		for r.pos+8 <= len(src) && load8(src, r.pos)&mask == pat && r.open+count <= MaxTermDepth {
			r.pos, count = r.pos+n+1, count+1
		}
	}
	name := r.name(int(a.off), a.n)
	for end := r.pos + n; end < len(src) && src[end] == '(' && src[r.pos:end] == name && r.open+count <= MaxTermDepth; end = r.pos + n {
		r.pos, count = end+1, count+1
	}
	r.open += count
	if len(r.stack) == cap(r.stack) {
		// Room for a few runs, and past them for one per '(' to come.
		size := 8
		if len(r.stack) > 0 {
			size = len(r.stack) + 1 + strings.Count(src[r.pos:], "(")
		}
		stack := make([]appRun, len(r.stack), size)
		copy(stack, r.stack)
		r.stack = stack
	}
	r.stack = append(r.stack, appRun{a, count})
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
		if first.kind != tokNumber {
			return false
		}
		n := r.count(first)
		if n > MaxTermCount {
			return false
		}
		r.sink.Atom(name, total-1, true, 0)
		if n > 0 {
			r.sink.Succ(r.succFn(), n)
		}
		r.sink.EndTerm()
	} else {
		if first.kind == tokNumber && first.num > maxNumber {
			return false // a constant the tree parser finds too large
		}
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
func (r *groundReader) termAtom(name string, base token, plus int64) bool {
	if base.kind != tokNumber {
		return false // a constant in a functional position
	}
	n := addCount(r.count(base), plus)
	depth := addCount(int64(r.open), n)
	if depth > MaxTermCount {
		return false
	}
	guess := r.arityGuess(name)
	r.sink.Atom(name, guess, true, r.open)
	if n > 0 {
		r.sink.Succ(r.succFn(), n)
	}
	for j := len(r.stack) - 1; j >= 0; j-- {
		a := r.stack[j].name
		for k := r.stack[j].count; k > 0; {
			m, ok := r.closeFiled(a, k)
			if m == 0 {
				m, ok = 1, r.closeApp(a)
			}
			if !ok {
				return false
			}
			if k -= m; r.tok.kind != tokPlus {
				continue
			}
			r.flush()
			plus, ok := r.plus()
			if !ok {
				return false
			}
			if depth = addCount(depth, plus); depth > MaxTermCount {
				return false
			}
			if plus > 0 {
				r.sink.Succ(r.succFn(), plus)
			}
		}
	}
	r.flush()
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

// closeFiled closes, from the current token on, up to k layers of the
// application a that the reader has filed, back to back: each is written
// into the batch by its entry, and the text after it is read only as far as
// the next layer's first byte — a ',' or a ')', a token of its own, where
// that layer's closing bytes begin. It returns how many it closed, and
// leaves the reader on the token after the last of them: ok is false when
// that token does not lex.
func (r *groundReader) closeFiled(a appName, k int) (m int, ok bool) {
	src, off := r.src, r.tok.off
	for m < k {
		// find's common path, inline: closing bytes of at most sixteen
		// bytes, read as readClose reads them, in the layer's own entry.
		var key closeKey
		if off+16 <= len(src) {
			if w := load8(src, off); closeParen(w) != 0 {
				key.w0, key.n = cutAtParen(w)
			} else if w1 := load8(src, off+8); closeParen(w1) != 0 {
				key.w0 = w
				key.w1, key.n = cutAtParen(w1)
				key.n += 8
			} else {
				key.n = -1
			}
		} else {
			key.n = -1
		}
		if key.n < 0 {
			var ok bool
			if key, ok = readClose(src, off); !ok {
				break
			}
		}
		e, size := layerHome(a, key), key.n+1
		if l := &r.layers[e]; l.key != key || l.name != a || key.n > 16 || len(l.close) != size {
			var hit bool
			if e, size, hit = r.probe(a, off, key, e); !hit {
				break
			}
		}
		if r.nbatch == len(r.batch) {
			r.flush()
		}
		r.batch[r.nbatch] = uint8(e)
		r.nbatch++
		off += size
		if m++; off >= len(src) || src[off] != ',' && src[off] != ')' {
			break
		}
	}
	if m == 0 {
		return 0, true
	}
	r.pos = off
	return m, r.next()
}

// closeApp reads the rest of the application a, which the reader has not
// filed, from its constants to its ')', and the token after it, token by
// token, and files it.
func (r *groundReader) closeApp(a appName) bool {
	r.flush()
	e, _, _ := r.find(a, r.tok.off)
	start := r.tok.off
	r.sink.App(r.name(int(a.off), a.n), e)
	for r.tok.kind == tokComma {
		t, ok := r.constArg()
		if !ok {
			return false
		}
		r.sink.AppArg(r.constName(t))
	}
	if r.tok.kind != tokRParen {
		return false
	}
	if e >= 0 {
		key, _ := readClose(r.src, start) // as find read it
		r.layers[e] = layer{name: a, close: r.src[start:r.pos], key: key}
	}
	return r.next()
}

// flush hands the sink the layers of the batch it is yet to receive.
func (r *groundReader) flush() {
	if r.nbatch > 0 {
		r.sink.Repeat(r.nbatch)
		r.nbatch = 0
	}
}

// find looks up the layer of the application a whose closing bytes begin
// at off, where a token begins. hit: an entry has a's name and is followed
// in the text, from that token on, by its closing bytes, which therefore lex
// to the tokens they lexed to when it was filed (they end in a ')', whose
// token ends where the ')' does) and read as they read. Else e is the entry
// to file the layer under once it is read, or -1 when the bytes from off
// hold no ')' within maxClose. size is the length of the closing bytes of a
// hit: on the common path it is known from the key before the entry is
// read, so that the next layer's lookup need not wait for this one's.
func (r *groundReader) find(a appName, off int) (e, size int, hit bool) {
	key, ok := readClose(r.src, off)
	if !ok {
		return -1, 0, false
	}
	return r.probe(a, off, key, layerHome(a, key))
}

// layerHome is the entry a layer of the application a whose closing bytes
// pack to key is filed under, unless others are.
func layerHome(a appName, key closeKey) int {
	w := key.w0 ^ bits.RotateLeft64(key.w1, 29) ^ uint64(key.n)<<58 ^ uint64(a.n)<<52
	return int(w * 0x9e3779b97f4a7c15 >> (64 - layerBits))
}

// probe is find for the closing bytes at off, which pack to key, from the
// entry home on.
func (r *groundReader) probe(a appName, off int, key closeKey, home int) (e, size int, hit bool) {
	src, n := r.src, key.n
	// Up to four entries from the layer's own, so that layers with one home
	// do not evict each other.
	for k := 0; k < 4; k++ {
		e := (home + k) & (LayerSlots - 1)
		l := &r.layers[e]
		switch {
		case l.close == "":
			return e, 0, false
		case l.key != key || l.name.n != a.n:
		case l.name.off != a.off && r.name(int(l.name.off), l.name.n) != r.name(int(a.off), a.n):
		case n <= 16 && len(l.close) == n+1 || strings.HasPrefix(src[off:], l.close):
			return e, len(l.close), true
		}
	}
	return home, 0, false
}

// constArg reads ", c" and returns c: a constant or a numeral, whose +n
// sugar may add up to nothing; anything more belongs in a functional
// position.
func (r *groundReader) constArg() (token, bool) {
	if !r.next() {
		return token{}, false
	}
	t := r.tok
	if t.kind != tokIdent && t.kind != tokNumber || t.kind == tokNumber && t.num > maxNumber || !r.next() {
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
// just past MaxTermCount.
func (r *groundReader) plus() (int64, bool) {
	var sum int64
	for r.tok.kind == tokPlus {
		if !r.next() || r.tok.kind != tokNumber {
			return 0, false
		}
		sum = addCount(sum, r.count(r.tok))
		if !r.next() {
			return 0, false
		}
	}
	return sum, true
}

// count returns the value of the number t, saturated just past
// MaxTermCount: read from its digits when the lexer's value saturated.
func (r *groundReader) count(t token) int64 {
	if t.num <= maxNumber {
		return int64(t.num)
	}
	var n int64
	for _, c := range []byte(r.src[t.off : t.off+int(t.n)]) {
		if n > MaxTermCount/10 {
			return MaxTermCount + 1
		}
		n = min(n*10+int64(c-'0'), MaxTermCount+1)
	}
	return n
}

// addCount returns a+b, saturated just past MaxTermCount, for a and b at
// most MaxTermCount+1.
func addCount(a, b int64) int64 {
	if a > MaxTermCount-b {
		return MaxTermCount + 1
	}
	return a + b
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
