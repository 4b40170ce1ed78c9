package core

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"funcdb/internal/ast"
	"funcdb/internal/obs"
	"funcdb/internal/parser"
	"funcdb/internal/symbols"
)

// QueryShape renders a query's canonical shape: predicate and function
// symbols by name and signature, constants by name, and variables α-renamed
// by first occurrence — `$i` for an answer variable, `_i` for an existential
// one (`_S`), which asks for a different answer. Two query texts with the
// same shape are answered by the same compiled plan — `?- Meets( T , X ).`
// and `?- Meets(U, Y).` share one — while queries differing in any constant,
// symbol or binding pattern do not. Plan caches key on the shape instead of
// the exact text, so spelling variations collapse onto one compilation.
func QueryShape(q *ast.Query, names *symbols.Table) string {
	shape, _ := shapeAndFingerprint(q, names)
	return shape
}

// shapeAndFingerprint is QueryShape with the shape's fingerprint
// (obs.Fingerprint of it), hashed as the shape is written.
func shapeAndFingerprint(q *ast.Query, names *symbols.Table) (shape, fingerprint string) {
	w := queryWriter{q: q, names: names, fn: symbols.NoFunc}
	w.Grow(w.size() + fingerprintLen)
	w.query()
	return w.Finish()
}

// fingerprintLen is the length of a fingerprint: 16 hex digits.
const fingerprintLen = 16

// shapeWriter writes a shape front to back, atom by atom and, in a
// functional term, application by application innermost first, and hashes
// it into its fingerprint as it goes. It is the one writer of the format:
// QueryShape drives it over a parsed query, and a ground query lowered as it
// is read drives it from the reader's events. The zero value is ready to use.
//
// An atom is written `P/k(…)`, or `P/kf(…)` for a functional predicate,
// whose term comes first: its base (`0` or a variable) and its applications,
// `.f` or `.g[a,b]` for one with constants or variables, closed by `|`.
// A maximal run of n ≥ 2 applications spelled alike is written once, with
// its count: `.succ*512`, `.g[a,b]*3`. Atoms are separated by `;`,
// arguments by `,`.
//
// The writer counts runs as it closes applications, so however a term is
// spelled — a numeral, +n sugar, succ written out, a repeated layer — its
// shape is the one its applications make.
type shapeWriter struct {
	// The shape, then its fingerprint: Finish cuts both from the one buffer,
	// so a shape written into room made for it costs one allocation and no
	// copy. Bytes before the run the term ends in are never changed, so a
	// view of them stays valid; the open application's may be cut off again.
	b []byte
	// h is the hash of the shape's first hashed bytes: each atom is folded in
	// whole when the next begins, eight bytes at a time.
	h      obs.FingerprintHash
	hashed int
	atoms  int
	state  uint8
	args   int  // arguments written in the current list
	app    int  // where the open application begins
	open   bool // an application is written and its arguments may follow

	// The run the term ends in: count applications spelled as run says
	// (where its token begins: the copy of a repeated spelling is not the
	// bytes Repeat named, which from keeps); count 0 when the term has none.
	run   appSpelling
	from  int
	count int64
}

// appSpelling is an application as a shape spells it, `.f` or `.g[a,b`: the n
// bytes at off, without the ']' that closes args constants or variables,
// and key, a hash of those bytes that tells the applications of a term
// apart without reading them.
type appSpelling struct {
	off, n, args int
	key          uint64
}

// spellingKey hashes the spelling s.
func spellingKey(s string) uint64 {
	return obs.NewFingerprintHash().AddString(s).Sum64()
}

// What an argument written next belongs to.
const (
	shapeData uint8 = iota // the atom's data arguments
	shapeBase              // nothing yet: a functional term's base comes next
	shapeTerm              // the application written last
)

// Grow makes room for k more bytes, as strings.Builder.Grow does.
func (w *shapeWriter) Grow(k int) {
	if cap(w.b)-len(w.b) < k {
		b := make([]byte, len(w.b), 2*cap(w.b)+k)
		copy(b, w.b)
		w.b = b
	}
}

func (w *shapeWriter) str(s string) { w.b = append(w.b, s...) }

func (w *shapeWriter) byte(c byte) { w.b = append(w.b, c) }

// view returns the n bytes of the shape at off as a string, without a copy:
// they must be bytes that are never changed.
func (w *shapeWriter) view(off, n int) string {
	return unsafe.String(unsafe.SliceData(w.b[off:off+n]), n)
}

// fold hashes what has been written since the last fold.
func (w *shapeWriter) fold() {
	w.h, w.hashed = w.h.AddString(w.view(w.hashed, len(w.b)-w.hashed)), len(w.b)
}

// Atom begins an atom of the predicate called name, with arity data
// arguments; a functional atom's term comes next.
func (w *shapeWriter) Atom(name string, arity int, functional bool) {
	if w.atoms == 0 {
		w.h = obs.NewFingerprintHash()
	} else {
		w.fold()
		w.byte(';')
	}
	w.atoms++
	w.str(name)
	w.byte('/')
	w.int(int64(arity))
	if functional {
		w.byte('f')
	}
	w.byte('(')
	w.state, w.args = shapeData, 0
	if functional {
		w.state = shapeBase
	}
}

func (w *shapeWriter) int(i int64) { w.b = strconv.AppendInt(w.b, i, 10) }

// Zero writes a ground term's base.
func (w *shapeWriter) Zero() {
	w.byte('0')
	w.state, w.args = shapeTerm, 0
}

// Var writes a variable — the i-th the query names, an answer variable or an
// existential one — as a term's base or as an argument.
func (w *shapeWriter) Var(i int, answer bool) {
	mark := byte('_')
	if answer {
		mark = '$'
	}
	if w.state == shapeBase {
		w.state, w.args = shapeTerm, 0
	} else {
		w.sep()
	}
	w.byte(mark)
	w.int(int64(i))
}

// App writes an application of the function symbol fn; its arguments, if
// any, come next.
func (w *shapeWriter) App(fn string) {
	w.CloseApp()
	w.app, w.open = len(w.b), true
	w.byte('.')
	w.str(fn)
	w.args = 0
}

// Apps writes n applications of the function symbol fn, with no arguments.
func (w *shapeWriter) Apps(fn string, n int64) {
	w.CloseApp()
	if w.count > 0 && w.run.args == 0 && w.run.n == 1+len(fn) && w.view(w.run.off+1, len(fn)) == fn {
		w.count += n
		return
	}
	w.endRun()
	off := len(w.b)
	w.byte('.')
	w.str(fn)
	w.run, w.from, w.count = appSpelling{off: off, n: 1 + len(fn)}, off, n
	w.run.key = spellingKey(w.view(off, w.run.n))
}

// CloseApp closes the open application, if any, and returns the spelling of
// the application written last — which spells what it stands for: its
// function symbol and its constants — at a run's token that is never
// changed again. An application spelled as the run the term ends in is
// counted into it, and its bytes cut off.
func (w *shapeWriter) CloseApp() appSpelling {
	if w.open {
		w.open = false
		n := len(w.b) - w.app
		key := spellingKey(w.view(w.app, n))
		if w.count > 0 && key == w.run.key && w.view(w.app, n) == w.view(w.run.off, w.run.n) {
			w.b = w.b[:w.app]
			w.count++
		} else {
			if w.count > 1 {
				// The run before ends here: its count goes between it and
				// the application, which moves up.
				var buf [24]byte
				w.b = slices.Insert(w.b, w.app, countSuffix(buf[:0], w.count)...)
			}
			off := len(w.b) - n
			w.run, w.from, w.count = appSpelling{off: off, n: n, args: w.args, key: key}, off, 1
			if w.args > 0 {
				w.byte(']')
			}
		}
	}
	return w.run
}

// countSuffix appends a run's count as the shape writes it: `*n`.
func countSuffix(dst []byte, n int64) []byte {
	return strconv.AppendInt(append(dst, '*'), n, 10)
}

// endRun writes the count of the run the term ends in, if it has one.
func (w *shapeWriter) endRun() {
	if w.count > 1 {
		w.b = countSuffix(w.b, w.count)
	}
	w.count = 0
}

// Repeats writes, for each entry of entries in turn, an application
// spelled as spells[entry], which CloseApp returned: one spelled as the run
// the term ends in is counted into it, and nothing is written; any other is
// copied from the shape itself, in two words when it is at most sixteen
// bytes and there is room for them. A deep term's layers are most of a
// read, so the loop keeps the run in locals and makes no call but to end a
// run of two or more, or to copy a long spelling.
func (w *shapeWriter) Repeats(spells *[parser.LayerSlots]appSpelling, entries []uint8) {
	if w.open {
		w.CloseApp()
	}
	b, run, from, count := w.b, w.run, w.from, w.count
	for _, e := range entries {
		sp := &spells[e]
		if count > 0 && sp.key == run.key && (sp.off == from || string(b[sp.off:sp.off+sp.n]) == string(b[run.off:run.off+run.n])) {
			count++
			continue
		}
		if count > 1 {
			b = countSuffix(b, count)
		}
		end := len(b)
		run, from, count = *sp, sp.off, 1
		run.off = end
		if sp.n > 16 || cap(b)-end < 17 {
			b = append(b, b[sp.off:sp.off+sp.n]...)
			if sp.args > 0 {
				b = append(b, ']')
			}
			continue
		}
		// The words may read past the spelling, and write past it bytes
		// that are cut off again: b is not read beyond its length.
		b = b[:end+17]
		binary.LittleEndian.PutUint64(b[end:], binary.LittleEndian.Uint64(b[sp.off:]))
		binary.LittleEndian.PutUint64(b[end+8:], binary.LittleEndian.Uint64(b[sp.off+8:]))
		b[end+sp.n] = ']'
		b = b[:end+sp.n+min(sp.args, 1)]
	}
	w.b, w.run, w.from, w.count = b, run, from, count
}

// Const writes a constant argument.
func (w *shapeWriter) Const(name string) {
	w.sep()
	w.str(name)
}

// EndTerm closes a functional atom's term.
func (w *shapeWriter) EndTerm() {
	w.CloseApp()
	w.endRun()
	w.byte('|')
	w.state, w.args = shapeData, 0
}

// End closes the atom.
func (w *shapeWriter) End() { w.byte(')') }

func (w *shapeWriter) sep() {
	switch {
	case w.args > 0:
		w.byte(',')
	case w.state == shapeTerm:
		w.byte('[')
	}
	w.args++
}

// Finish returns the shape and its fingerprint (obs.Fingerprint of it),
// which it writes after the shape; nothing may be written after it. Both
// are cut from the writer's buffer, unless the room made for it was a third
// too much — more than the allocator's rounding up to a size class and the
// runs a deep term's layers repeat, by which a shape falls short of its
// text: then they are copied out, so that what a plan keeps is about what
// the plan cache charges it for.
func (w *shapeWriter) Finish() (shape, fingerprint string) {
	if w.atoms == 0 {
		return "", ""
	}
	w.fold()
	w.b = w.h.Append(w.b)
	s := w.view(0, len(w.b))
	if cap(w.b) > len(s)+len(s)/3+64 {
		s = strings.Clone(s)
	}
	return s[:w.hashed], s[w.hashed:]
}

// queryWriter writes one parsed query's shape.
type queryWriter struct {
	shapeWriter
	q     *ast.Query
	names *symbols.Table
	vars  []symbols.VarID // in order of first occurrence; a query has a handful

	// The function symbol named last: a deep term repeats one or two for
	// hundreds of layers.
	fn     symbols.FuncID
	fnName string
}

func (w *queryWriter) funcName(fn symbols.FuncID) string {
	if fn != w.fn {
		w.fn, w.fnName = fn, w.names.FuncName(fn)
	}
	return w.fnName
}

// size returns the shape's length, counting what query will write, so that
// its buffer is allocated once and at the size the plan cache is charged
// for. It numbers the variables as varRef does, in w.vars, and empties it.
func (w *queryWriter) size() int {
	n := len(w.q.Atoms) - 1 // the ';'s
	for ai := range w.q.Atoms {
		a := &w.q.Atoms[ai]
		info := w.names.PredInfo(a.Pred)
		n += len(info.Name) + 1 + digits(info.Arity) + 2 + w.argsSize(a.Args) // "P/k(…)"
		if info.Functional {
			n++
		}
		if a.FT != nil {
			n += 2 // the base's "0" and the '|'
			if a.FT.HasVarBase() {
				n += w.varSize(a.FT.Base) - 1
			}
			apps := a.FT.Apps
			for i := 0; i < len(apps); {
				app, run := apps[i], 1
				for i+run < len(apps) && sameApp(apps[i+run], app) {
					run++
				}
				i += run
				n += 1 + len(w.funcName(app.Fn))
				if len(app.Args) > 0 {
					n += 2 + w.argsSize(app.Args)
				}
				if run > 1 {
					n += 1 + digits(run)
				}
			}
		}
	}
	w.vars = w.vars[:0]
	return n
}

// argsSize is the length of a comma-separated argument list.
func (w *queryWriter) argsSize(args []ast.DTerm) int {
	n := max(len(args)-1, 0)
	for _, d := range args {
		if d.IsVar() {
			n += w.varSize(d.Var)
		} else {
			n += len(w.names.ConstName(d.Const))
		}
	}
	return n
}

func (w *queryWriter) varSize(v symbols.VarID) int {
	i := slices.Index(w.vars, v)
	if i < 0 {
		i = len(w.vars)
		w.vars = append(w.vars, v)
	}
	return 1 + digits(i)
}

// sameApp reports whether a and b are spelled alike: one run of a shape.
func sameApp(a, b ast.FApp) bool { return a.Fn == b.Fn && slices.Equal(a.Args, b.Args) }

func digits(i int) int {
	n := 1
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
}

func (w *queryWriter) varRef(v symbols.VarID) {
	i := slices.Index(w.vars, v)
	if i < 0 {
		i = len(w.vars)
		w.vars = append(w.vars, v)
	}
	w.Var(i, slices.Contains(w.q.Free, v))
}

func (w *queryWriter) dterm(d ast.DTerm) {
	if d.IsVar() {
		w.varRef(d.Var)
	} else {
		w.Const(w.names.ConstName(d.Const))
	}
}

func (w *queryWriter) query() {
	for ai := range w.q.Atoms {
		a := &w.q.Atoms[ai]
		info := w.names.PredInfo(a.Pred)
		w.Atom(info.Name, info.Arity, info.Functional)
		if a.FT != nil {
			if a.FT.HasVarBase() {
				w.varRef(a.FT.Base)
			} else {
				w.Zero()
			}
			for _, app := range a.FT.Apps {
				w.App(w.funcName(app.Fn))
				for _, d := range app.Args {
					w.dterm(d)
				}
			}
			w.EndTerm()
		}
		for _, d := range a.Args {
			w.dterm(d)
		}
		w.End()
	}
}
