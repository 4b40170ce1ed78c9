package core

import (
	"testing"

	"funcdb/internal/parser"
	"funcdb/internal/symbols"
)

// TestQueryShapeSize: the shape's buffer is sized once by counting, so the
// count must be the length written — an undercount grows the buffer, an
// overcount is retained by every cached plan uncharged.
func TestQueryShapeSize(t *testing.T) {
	prog := parser.MustParse(`
		P(a). P(b).
		P(X) -> Member(ext(0, X), X).
		P(Y), Member(S, X) -> Member(ext(S, Y), Y).
		Meets(0, tony). Meets(T, X), Next(X, Y) -> Meets(T+1, Y). Next(tony, jan).
		Wide(a, b, c, d, e, f, g, h, i, j, k, l).
	`).Program
	texts := []string{
		"?- Meets(0, tony).",
		"?- Meets(12, X).",
		"?- Meets(T+3, _X), Next(_X, Y).",
		"?- Member(ext(ext(0, a), X), b).",
		"?- Member(ext(ext(S, a), X), X), Meets(T, X), Next(X, jan).",
		"?- Wide(A, B, C, D, E, F, G, H, I, J, K, L), Wide(L, K, a, b, c, d, e, f, g, h, i, M).",
	}
	for _, text := range texts {
		q, err := parser.ParseQuery(prog, text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		w := queryWriter{q: q, names: prog.Tab, fn: symbols.NoFunc}
		if n, shape := w.size(), QueryShape(q, prog.Tab); n != len(shape) {
			t.Errorf("%s: counted %d bytes, wrote %d (%s)", text, n, len(shape), shape)
		}
	}
}
