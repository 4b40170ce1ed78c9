package canonical

import (
	"slices"
	"strconv"
	"strings"

	"funcdb/internal/ast"
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
	w := shapeWriter{q: q, names: names, fn: symbols.NoFunc}
	w.b.Grow(w.size())
	w.query()
	return w.b.String()
}

// shapeWriter renders one query's shape.
type shapeWriter struct {
	b     strings.Builder
	q     *ast.Query
	names *symbols.Table
	vars  []symbols.VarID // in order of first occurrence; a query has a handful

	// The function symbol named last: a deep term repeats one or two for
	// hundreds of layers.
	fn     symbols.FuncID
	fnName string
}

func (w *shapeWriter) funcName(fn symbols.FuncID) string {
	if fn != w.fn {
		w.fn, w.fnName = fn, w.names.FuncName(fn)
	}
	return w.fnName
}

// size returns the shape's length, counting what query will write, so that
// its buffer is allocated once and at the size the plan cache is charged
// for. It numbers the variables as varRef does, in w.vars, and empties it.
func (w *shapeWriter) size() int {
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
func (w *shapeWriter) argsSize(args []ast.DTerm) int {
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

func (w *shapeWriter) varSize(v symbols.VarID) int {
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

func (w *shapeWriter) varRef(v symbols.VarID) {
	i := slices.Index(w.vars, v)
	if i < 0 {
		i = len(w.vars)
		w.vars = append(w.vars, v)
	}
	mark := byte('_')
	if slices.Contains(w.q.Free, v) {
		mark = '$'
	}
	w.b.WriteByte(mark)
	w.b.WriteString(strconv.Itoa(i))
}

func (w *shapeWriter) dterm(d ast.DTerm) {
	if d.IsVar() {
		w.varRef(d.Var)
	} else {
		w.b.WriteString(w.names.ConstName(d.Const))
	}
}

func (w *shapeWriter) query() {
	for ai := range w.q.Atoms {
		a := &w.q.Atoms[ai]
		if ai > 0 {
			w.b.WriteByte(';')
		}
		info := w.names.PredInfo(a.Pred)
		w.b.WriteString(info.Name)
		w.b.WriteByte('/')
		w.b.WriteString(strconv.Itoa(info.Arity))
		if info.Functional {
			w.b.WriteByte('f')
		}
		w.b.WriteByte('(')
		if a.FT != nil {
			if a.FT.HasVarBase() {
				w.varRef(a.FT.Base)
			} else {
				w.b.WriteByte('0')
			}
			for _, app := range a.FT.Apps {
				w.b.WriteByte('.')
				w.b.WriteString(w.funcName(app.Fn))
				if len(app.Args) > 0 {
					w.b.WriteByte('[')
					for i, d := range app.Args {
						if i > 0 {
							w.b.WriteByte(',')
						}
						w.dterm(d)
					}
					w.b.WriteByte(']')
				}
			}
			w.b.WriteByte('|')
		}
		for i, d := range a.Args {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.dterm(d)
		}
		w.b.WriteByte(')')
	}
}
