package core

import (
	"slices"
	"strconv"
	"strings"

	"funcdb/internal/ast"
	"funcdb/internal/obs"
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
// Atoms are separated by `;`, arguments by `,`.
type shapeWriter struct {
	// The shape, then its fingerprint: Finish cuts both from the one string
	// the builder holds, so a shape written into room made for it costs one
	// allocation and no copy.
	b strings.Builder
	// h is the hash of the shape's first hashed bytes. The rest is folded in
	// at the next application, a loop over a few bytes that keeps the hash in
	// a register and runs beside the reading of the text that follows.
	h      obs.FingerprintHash
	hashed int
	atoms  int
	state  uint8
	args   int // arguments written in the current list
	app    int // where the application written last begins
}

// What an argument written next belongs to.
const (
	shapeData uint8 = iota // the atom's data arguments
	shapeBase              // nothing yet: a functional term's base comes next
	shapeTerm              // the application written last
)

// Grow makes room for k more bytes.
func (w *shapeWriter) Grow(k int) { w.b.Grow(k) }

func (w *shapeWriter) str(s string) { w.b.WriteString(s) }

func (w *shapeWriter) byte(c byte) { w.b.WriteByte(c) }

// fold hashes what has been written since the last fold.
func (w *shapeWriter) fold() {
	s := w.b.String()
	w.h, w.hashed = w.h.AddString(s[w.hashed:]), len(s)
}

// Atom begins an atom of the predicate called name, with arity data
// arguments; a functional atom's term comes next.
func (w *shapeWriter) Atom(name string, arity int, functional bool) {
	if w.atoms == 0 {
		w.h = obs.NewFingerprintHash()
	} else {
		w.byte(';')
	}
	w.atoms++
	w.str(name)
	w.byte('/')
	w.int(arity)
	if functional {
		w.byte('f')
	}
	w.byte('(')
	w.state, w.args = shapeData, 0
	if functional {
		w.state = shapeBase
	}
}

func (w *shapeWriter) int(i int) {
	var buf [20]byte
	w.b.Write(strconv.AppendInt(buf[:0], int64(i), 10))
}

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
	w.int(i)
}

// App writes an application of the function symbol fn; its arguments, if
// any, come next.
func (w *shapeWriter) App(fn string) {
	w.fold()
	w.closeApp()
	w.app = w.b.Len()
	w.byte('.')
	w.str(fn)
	w.args = 0
}

// LastApp returns the application written last as written so far — `.f`,
// or `.g[a,b` while its bracket is open — which spells what it stands for:
// its function symbol and its constants; where it begins in the shape; and
// how many constants it has.
func (w *shapeWriter) LastApp() (off int, app string, args int) {
	return w.app, w.b.String()[w.app:], w.args
}

// Repeat writes an application again, as LastApp spelled it: the n bytes of
// the shape at off, with args constants. They are folded into the
// fingerprint with what follows, at the next fold, as App's are.
func (w *shapeWriter) Repeat(off, n, args int) {
	w.fold()
	w.closeApp()
	w.app = w.b.Len()
	w.str(w.b.String()[off : off+n])
	w.args = args
}

// Const writes a constant argument.
func (w *shapeWriter) Const(name string) {
	w.sep()
	w.str(name)
}

// EndTerm closes a functional atom's term.
func (w *shapeWriter) EndTerm() {
	w.closeApp()
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

func (w *shapeWriter) closeApp() {
	if w.state == shapeTerm && w.args > 0 {
		w.byte(']')
	}
}

// Finish returns the shape and its fingerprint (obs.Fingerprint of it),
// which it writes after the shape; nothing may be written after it. Both
// are cut from the builder's string, unless the room made for it was a
// quarter too much (more than the allocator's rounding up to a size class):
// then they are copied out, so that what a plan keeps is about what the plan
// cache charges it for.
func (w *shapeWriter) Finish() (shape, fingerprint string) {
	if w.atoms == 0 {
		return "", ""
	}
	w.fold()
	var buf [fingerprintLen]byte
	w.b.Write(w.h.Append(buf[:0]))
	s := w.b.String()
	if w.b.Cap() > len(s)+len(s)/4+64 {
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
			for _, app := range a.FT.Apps {
				n += 1 + len(w.funcName(app.Fn))
				if len(app.Args) > 0 {
					n += 2 + w.argsSize(app.Args)
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
