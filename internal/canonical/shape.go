package canonical

import (
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
	var b strings.Builder
	vars := make(map[symbols.VarID]int)
	varRef := func(v symbols.VarID) {
		i, ok := vars[v]
		if !ok {
			i = len(vars)
			vars[v] = i
		}
		mark := byte('_')
		for _, f := range q.Free {
			if f == v {
				mark = '$'
			}
		}
		b.WriteByte(mark)
		b.WriteString(strconv.Itoa(i))
	}
	dterm := func(d ast.DTerm) {
		if d.IsVar() {
			varRef(d.Var)
		} else {
			b.WriteString(names.ConstName(d.Const))
		}
	}
	for ai := range q.Atoms {
		a := &q.Atoms[ai]
		if ai > 0 {
			b.WriteByte(';')
		}
		info := names.PredInfo(a.Pred)
		b.WriteString(info.Name)
		b.WriteByte('/')
		b.WriteString(strconv.Itoa(info.Arity))
		if info.Functional {
			b.WriteByte('f')
		}
		b.WriteByte('(')
		if a.FT != nil {
			if a.FT.HasVarBase() {
				varRef(a.FT.Base)
			} else {
				b.WriteByte('0')
			}
			for _, app := range a.FT.Apps {
				b.WriteByte('.')
				b.WriteString(names.FuncName(app.Fn))
				if len(app.Args) > 0 {
					b.WriteByte('[')
					for i, d := range app.Args {
						if i > 0 {
							b.WriteByte(',')
						}
						dterm(d)
					}
					b.WriteByte(']')
				}
			}
			b.WriteByte('|')
		}
		for i, d := range a.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			dterm(d)
		}
		b.WriteByte(')')
	}
	return b.String()
}
