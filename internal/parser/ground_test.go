package parser

import (
	"fmt"
	"strings"
	"testing"

	"funcdb/internal/symbols"
)

// countingSink counts what ReadGround hands it since the last Reset.
type countingSink struct {
	resets, atoms int
	layers        [8]uint8
}

func (s *countingSink) Reset()                      { s.resets, s.atoms = s.resets+1, 0 }
func (s *countingSink) Atom(string, int, bool, int) { s.atoms++ }
func (s *countingSink) Succ(symbols.FuncID, int64)  {}
func (s *countingSink) App(string, int)             {}
func (s *countingSink) AppArg(string)               {}
func (s *countingSink) Layers() []uint8             { return s.layers[:] }
func (s *countingSink) Repeat(int)                  {}
func (s *countingSink) EndTerm()                    {}
func (s *countingSink) Arg(string, symbols.ConstID) {}
func (s *countingSink) End(symbols.PredID)          {}

// TestReadGroundReadsTwiceAtMost: whatever a text teaches the reader — that
// a predicate the table lacks is functional, after an atom of it was read as
// data; a data arity other than the one the table makes it guess — it reads
// the text once more, with all of it: a text of 4 000 such atoms takes two
// passes, not one per atom.
func TestReadGroundReadsTwiceAtMost(t *testing.T) {
	tab := MustParse("Q(0, a). Q(S, a) -> Q(f(S), a).").Program.Tab
	var b strings.Builder
	b.WriteString("?- ")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "Z%d(1), Z%d(f(0)), Q(f(0), a, b), Y%d(g(0), a), ", i, i, i)
	}
	b.WriteString("Q(f(0), a).")
	for _, tc := range []struct {
		text          string
		resets, atoms int
	}{
		{b.String(), 1, 4001},
		{"?- Q(f(0), a), Q(0, b).", 0, 2},
		{"?- Z(1), Z(f(0)).", 1, 2},
	} {
		var s countingSink
		if !ReadGround(tab, tc.text, &s) {
			t.Fatalf("%.60q: declined", tc.text)
		}
		if s.resets != tc.resets || s.atoms != tc.atoms {
			t.Errorf("%.60q: %d passes ending in %d atoms, want %d ending in %d", tc.text, s.resets+1, s.atoms, tc.resets+1, tc.atoms)
		}
	}
}
