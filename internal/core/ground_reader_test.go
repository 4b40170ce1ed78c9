package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"funcdb/internal/datagen"
	"funcdb/internal/parser"
	"funcdb/internal/specgraph"
	"funcdb/internal/term"
)

// readerDisagrees compares what Prepare's reader and the tree lowering
// (treePlan) make of text: whether it is declined — the tree rejects it or
// finds it open — and for a ground query the shape, fingerprint, steps and
// verdict by both methods. A ground query that counts more applications than
// the tree holds (parser.MaxTermDepth) is the reader's alone, and is held to
// pastTreeCap instead. It returns "" when they agree.
func readerDisagrees(s *Snapshot, text string) string {
	got := s.readGround(text)
	ref, err := s.treePlan(text)
	switch {
	case got == nil && (err != nil || ref == nil):
		return ""
	case got == nil:
		return "the reader declined a well-formed ground query"
	case err != nil && pastTreeCap(err):
		return runsDisagree(got, err)
	case err != nil:
		return fmt.Sprintf("the reader lowered a text the tree rejects: %v", err)
	case ref == nil:
		return "the reader lowered an open query"
	case got.shape != ref.shape:
		return fmt.Sprintf("shape %.200q, tree %.200q", got.shape, ref.shape)
	case got.fingerprint != ref.fingerprint:
		return fmt.Sprintf("fingerprint %s, tree %s", got.fingerprint, ref.fingerprint)
	case len(got.steps) != len(ref.steps):
		return fmt.Sprintf("%d steps, tree %d", len(got.steps), len(ref.steps))
	}
	for i := range got.steps {
		g, r := &got.steps[i], &ref.steps[i]
		if g.kind != r.kind || g.kind == stepWalk && (g.atom != r.atom || g.state != r.state || !slices.Equal(g.runs, r.runs)) {
			return fmt.Sprintf("atom %d: step %d atom %d state %d runs %.40v, tree %d atom %d state %d runs %.40v",
				i, g.kind, g.atom, g.state, g.runs, r.kind, r.atom, r.state, r.runs)
		}
	}
	ctx := context.Background()
	for _, m := range []Method{MethodGraph, MethodEquational} {
		ok, err := got.Ask(ctx, WithMethod(m))
		rok, rerr := ref.Ask(ctx, WithMethod(m))
		if ok != rok || err != nil || rerr != nil {
			return fmt.Sprintf("method %d: %v, %v; tree %v, %v", m, ok, err, rok, rerr)
		}
	}
	return ""
}

// pastTreeCap reports whether err is the tree parser's refusal of a term
// that counts too many applications, or a number too large to hold.
func pastTreeCap(err error) bool {
	var pe *parser.ParseError
	return errors.As(err, &pe) && (strings.Contains(err.Error(), "term deeper than") || strings.Contains(err.Error(), "number too large"))
}

// runsDisagree holds a plan the tree parser cannot build (treeErr) to what
// holds without it: the plan is marked deep; each walk of a run string of at most 2^20 applications
// reaches the state the string written out reaches; the graph method
// answers; and the equational method, which applies the terms, answers the
// tree parser's error.
func runsDisagree(p *Plan, treeErr error) string {
	s := p.snap
	if !p.deep {
		return fmt.Sprintf("the tree rejects it (%v), and the plan is not deep", treeErr)
	}
	for i := range p.steps {
		st := &p.steps[i]
		var total int64
		specgraph.EachRun(st.runs, func(_ int32, n int64) { total += n })
		if st.kind != stepWalk || total > 1<<20 {
			continue
		}
		var idx []int32
		specgraph.EachRun(st.runs, func(si int32, n int64) {
			for ; n > 0; n-- {
				idx = append(idx, si)
			}
		})
		if want := s.spec.WalkRuns(idx); st.state != want || s.spec.WalkRuns(st.runs) != want {
			return fmt.Sprintf("atom %d: runs %.40v lowered to state %d, walk to %d, written out to %d", i, st.runs, st.state, s.spec.WalkRuns(st.runs), want)
		}
	}
	ctx := context.Background()
	if _, err := p.Ask(ctx); err != nil {
		return fmt.Sprintf("method %d: %v", MethodGraph, err)
	}
	if _, err := p.Ask(ctx, WithMethod(MethodEquational)); err == nil || err.Error() != treeErr.Error() {
		return fmt.Sprintf("method %d: %v, the tree parser %v", MethodEquational, err, treeErr)
	}
	return ""
}

// readerCorpus is what the reader is held to per program: every text
// TestQueryLoweringStable lowers (the oracle generator's spellings of 60
// queries, ten malformed texts) and readerExtras.
func readerCorpus(op *oracleProgram, pi int) []string {
	r := rand.New(rand.NewSource(int64(1000 + pi)))
	var out []string
	for i := 0; i < 60; i++ {
		c := oracleCase{op, op.gen(r), r.Int63()}
		for _, sp := range c.spellings() {
			out = append(out, sp.text)
		}
	}
	for i := 0; i < 10; i++ {
		out = append(out, op.malformedText(r, i))
	}
	out = append(out, readerExtras(op)...)
	out = append(out, readerRunTexts(op)...)
	return append(out, readerMemoTexts(op)...)
}

// readerRunTexts are terms whose applications run, over the program's
// functional predicates and its first function symbol other than succ:
// numerals at, near and past parser.MaxTermCount and past
// parser.MaxTermDepth; chains of +n sugar; succ spelled out, around a
// numeral and under sugar; and runs of one application broken by one layer
// of another, or by sugar, or spelled with a space in one layer.
func readerRunTexts(op *oracleProgram) []string {
	open, close := "f(", ")"
	for _, s := range op.syms {
		if s.name != term.SuccName {
			open, close = s.name+"(", strings.Join(append([]string{""}, s.args...), ", ")+")"
			break
		}
	}
	wrap := func(n int, inner string) string {
		return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
	}
	succs := func(n int, inner string) string {
		return strings.Repeat("succ(", n) + inner + strings.Repeat(")", n)
	}
	const count, depth = int64(parser.MaxTermCount), parser.MaxTermDepth
	terms := []string{
		fmt.Sprint(count), fmt.Sprint(count - 1), fmt.Sprint(count + 1), fmt.Sprint(depth + 1), fmt.Sprint(int64(1) << 40),
		fmt.Sprintf("%d+1", count-1), fmt.Sprintf("%d+1", count), fmt.Sprintf("1+2+3+%d", depth),
		"3+4+5", "0+0+7", succs(3, "0"), succs(2, "7") + "+3", succs(2, "0+2") + "+1", succs(1, fmt.Sprint(count-1)),
		succs(2, fmt.Sprint(count-1)), succs(40, "0"), succs(2, wrap(1, succs(2, "0"))),
		wrap(3, "0"), wrap(2, wrap(1, "0")+"+1"), wrap(20, wrap(1, succs(1, wrap(20, "0")))),
		wrap(30, "5") + "+6", strings.Replace(wrap(12, "0"), close, " "+close, 1),
	}
	var out []string
	for _, p := range op.preds {
		if !p.fn {
			continue
		}
		args := ""
		for i := 0; i < p.arity; i++ {
			args += ", " + op.consts[i%max(len(op.consts), 1)]
		}
		if len(op.consts) == 0 {
			args = strings.Repeat(", a", p.arity)
		}
		for _, t := range terms {
			out = append(out, fmt.Sprintf("?- %s(%s%s).", p.name, t, args))
		}
	}
	return out
}

// readerExtras are the spellings the generator does not write, over the
// program's own predicates: succ spelled out, numerals with leading zeros
// and +0 sugar, comments, a function symbol written as the derived symbol it
// stands for, applications with more constants than the mixed memo keeps,
// a data arity the table does not have, and predicates the table lacks —
// typed functional only by a later atom, or with a data arity nothing
// guesses, either of which makes the reader read the text again.
func readerExtras(op *oracleProgram) []string {
	c := "a"
	if len(op.consts) > 0 {
		c = op.consts[len(op.consts)-1]
	}
	out := []string{
		"?- Zq(3).", "?- Zq(3), Zq(f(0)).", "?- Zq(f(0)), Zq(3).", "?- Zq(3), Zq(a).", "?- Zq(f(0)), Zq(a).",
		"?- Zq(a, b), Zq.", "?- Zq(0+1, " + c + ").", "?- Zq(3+0).", "?- Zq(007, 0+0).", "?- Zq(f(0), a, b).",
		"?- Zq(3), Zq(f(0)), Zr(4), Zr(0+1).", "?- Zq(g(0, a, b, c, d, e)).",
		"?- Zq(2, a), Zq(f(0), a), Zq(1, " + c + ").", "?- Zq(f(0), a), Zq(f(0), b), Zq(0+2).",
	}
	for _, p := range op.preds {
		args := strings.Repeat(", "+c, p.arity)
		if !p.fn {
			out = append(out,
				fmt.Sprintf("?- %s%s.", p.name, strings.TrimPrefix("("+strings.TrimPrefix(args, ", ")+")", "()")),
				fmt.Sprintf("?- %s(%s+0%s).", p.name, c, args), // too many arguments unless arity 0
				fmt.Sprintf("?- %s(f(0)%s).", p.name, args))
			continue
		}
		out = append(out,
			fmt.Sprintf("?- %s(succ(succ(0))%s).", p.name, args),
			fmt.Sprintf("?- %s(007+0%s)%%x\n.", p.name, args),
			fmt.Sprintf("?- %s(1+00+2%s), %s(0%s).", p.name, args, p.name, args),
			fmt.Sprintf("?- %s(F(0)%s).", p.name, args),
			fmt.Sprintf("?- %s(f(0)%s, %s).", p.name, args, c),
			fmt.Sprintf("?- %s(f(0)%s, %s, %s, %s, %s).", p.name, args, c, c, c, c),
			fmt.Sprintf("?- %s(0%s+0).", p.name, args))
		for i, s := range op.syms {
			if len(s.args) == 0 || i > 3 {
				continue
			}
			derived := s.name + "'" + strings.Join(s.args, "'")
			spelled := s.name + "(0, " + strings.Join(s.args, ", ") + ")"
			out = append(out,
				fmt.Sprintf("?- %s(%s(0)%s).", p.name, derived, args),
				fmt.Sprintf("?- %s(%s%s).", p.name, spelled, args),
				fmt.Sprintf("?- %s(%s(0, %s, 007, 0+0, %s)%s).", p.name, s.name, c, c, args))
		}
	}
	return out
}

// readerMemoTexts are deep terms that put the reader's layer memo to the
// test, over the program's first functional predicate and its first mixed
// function symbol (else its first pure one, with a constant it does not
// take): a layer the memo holds followed by one that differs from it in one
// byte — a constant, a space, a comment (one holding a ')' too), +0 sugar, a
// numeral's leading zero, a variable for the constant, a missing ')', a name
// that extends the held one or that the held one extends (f, f2); a term of
// more distinct layers than the memo has entries, twice over; and deep texts
// the reader reads twice, because the first pass learns that a predicate is
// functional or an atom's arity.
func readerMemoTexts(op *oracleProgram) []string {
	var p *oraclePred
	for i := range op.preds {
		if op.preds[i].fn {
			p = &op.preds[i]
			break
		}
	}
	if p == nil {
		return nil
	}
	fn, consts := "f", []string{"a"}
	for _, s := range op.syms {
		if len(s.args) > 0 {
			fn, consts = s.name, s.args
			break
		}
		if s.name != term.SuccName && fn == "f" {
			fn = s.name
		}
	}
	c := consts[len(consts)-1]
	other := "zz"
	if len(op.consts) > 0 && op.consts[0] != c {
		other = op.consts[0]
	}
	lead := ", " + strings.Join(consts[:len(consts)-1], ", ")
	if len(consts) == 1 {
		lead = ""
	}
	args := strings.Repeat(", "+c, p.arity)
	type layer struct{ name, close string } // innermost first
	deep := func(pred, rest string, layers ...layer) string {
		var b strings.Builder
		b.WriteString("?- " + pred + "(")
		for i := len(layers) - 1; i >= 0; i-- {
			b.WriteString(layers[i].name + "(")
		}
		b.WriteString("0")
		for _, l := range layers {
			b.WriteString(l.close)
		}
		b.WriteString(rest + ").")
		return b.String()
	}
	repeat := func(n int, ls ...layer) []layer {
		var out []layer
		for i := 0; i < n; i++ {
			out = append(out, ls...)
		}
		return out
	}
	same := layer{fn, lead + ", " + c + ")"}
	// around puts l between two runs of the layer the memo holds.
	around := func(held, l layer) string {
		layers := append(repeat(12, held), l)
		return deep(p.name, args, append(layers, repeat(12, held)...)...)
	}
	var out []string
	for _, closing := range []string{
		lead + ", " + other + ")",    // a constant
		lead + ",  " + c + ")",       // a space
		lead + ", " + c + " )",       // a space before the ')'
		lead + "," + c + ")",         // a space less
		lead + ", " + c + " %)\n)",   // a comment holding a ')'
		lead + ", " + c + "%x\n)",    // a comment
		lead + ", " + c + "+0)",      // +0 sugar on the constant
		lead + ", " + c + ")+0",      // +0 sugar on the layer
		lead + ", " + c + ")+1",      // a succ on the layer
		lead + ", 07)",               // a numeral, then
		lead + ", 007)",              // its leading zero
		lead + ", C)",                // a variable for the constant
		lead + ", " + c,              // a missing ')'
		lead + ", " + c + ")" + ", ", // a ',' after the ')'
	} {
		out = append(out, around(same, layer{fn, closing}))
	}
	out = append(out,
		around(same, layer{fn + "2", same.close}),
		around(layer{fn + "2", same.close}, same),
		deep(p.name, args, layer{fn + "2", same.close}, same, layer{fn + "2", same.close}, same),
		deep(p.name, args, same, layer{fn + "2", same.close}, same, layer{fn + "2", same.close}))
	// More distinct layers than the memo has entries, twice over: the second
	// run meets every one again after it was evicted.
	var many []layer
	for i := 0; i < 2*parser.LayerSlots+3; i++ {
		many = append(many, layer{fn, fmt.Sprintf("%s, k%d)", lead, i)})
	}
	out = append(out, deep(p.name, args, append(many, many...)...))
	// Read twice: a predicate the table lacks is functional only by its
	// second atom, or a functional atom has a data arity no pass guessed.
	layers := repeat(10, same, layer{fn, lead + ", " + other + ")"})
	out = append(out,
		"?- Zq(3), "+strings.TrimPrefix(deep("Zq", "", layers...), "?- "),
		strings.TrimSuffix(deep("Zq", ", "+c, layers...), ".")+", "+strings.TrimPrefix(deep("Zq", "", layers...), "?- "),
		deep(p.name, args+", "+c, layers...))
	return out
}

// TestReaderDeclinesOnlyOpenOrMalformed: over the corpora, the reader takes
// every text the tree parses into a ground query — numerals, +n, succ
// spelled out, data atoms, conjunctions, comments, helper predicates, and
// predicates, symbols and constants the snapshot has never seen — and
// lowers it as the tree lowering does. So the tree path, which an open or
// malformed text still takes, never becomes a second ground lowering.
func TestReaderDeclinesOnlyOpenOrMalformed(t *testing.T) {
	read, declined := 0, 0
	for pi, op := range oraclePrograms(t) {
		for _, text := range readerCorpus(op, pi) {
			if d := readerDisagrees(op.snap, text); d != "" {
				t.Errorf("%s: %.120q: %s", op.name, text, d)
			}
			if op.snap.readGround(text) != nil {
				read++
			} else {
				declined++
			}
		}
	}
	t.Logf("%d texts read, %d declined", read, declined)
	if read < 3*declined {
		t.Errorf("only %d texts read against %d declined: the corpus lost its ground queries", read, declined)
	}
}

// copyHitDisagrees asks text of an emptied plan cache twice, through the
// text and through a freshly built copy of it: the first Prepare is a miss,
// the second a text hit, which must compare the texts whole (the copy is
// not pointer-equal), find the miss's plan and, for a ground query, answer
// as it does. It returns "" when they agree.
func copyHitDisagrees(s *Snapshot, text string) string {
	pc := &s.plans
	pc.mu.Lock()
	pc.flush()
	pc.mu.Unlock()
	ctx := context.Background()
	p, err := s.Prepare(ctx, text)
	hp, herr := s.Prepare(ctx, strings.Clone(text))
	switch {
	case (err != nil) != (herr != nil) || err != nil && err.Error() != herr.Error():
		return fmt.Sprintf("the miss fails with %v, the hit on a copy with %v", err, herr)
	case err != nil:
		return ""
	case hp != p && pc.ntexts > 0:
		return "the hit on a copy found another plan than the miss built"
	case !p.Ground():
		return ""
	}
	ok, err := p.Ask(ctx)
	hok, herr := hp.Ask(ctx)
	if ok != hok || (err != nil) != (herr != nil) {
		return fmt.Sprintf("the miss answers %v, %v; the hit on a copy %v, %v", ok, err, hok, herr)
	}
	return ""
}

// FuzzGroundLowering: for any text, the reader and the tree lowering agree
// on whether it is declined, and on the shape, fingerprint, steps and
// verdict of a ground query, on the oracle's programs — one an input, so
// that an execution reads the text three times, not sixty. And the text is
// asked twice, through itself and through a fresh copy, which must find the
// same plan (copyHitDisagrees). It is seeded with every third text of the
// readers' corpus and every one of readerMemoTexts, under its own program.
func FuzzGroundLowering(f *testing.F) {
	progs := oraclePrograms(f)
	for pi, op := range progs {
		for i, text := range readerCorpus(op, pi) {
			if i%3 == 0 {
				f.Add(text, uint8(pi))
			}
		}
		for _, text := range readerMemoTexts(op) {
			f.Add(text, uint8(pi))
		}
	}
	f.Fuzz(func(t *testing.T, text string, pi uint8) {
		op := progs[int(pi)%len(progs)]
		if d := readerDisagrees(op.snap, text); d != "" {
			t.Errorf("%s: %.200q: %s", op.name, text, d)
		}
		if d := copyHitDisagrees(op.snap, text); d != "" {
			t.Errorf("%s: %.200q: %s", op.name, text, d)
		}
	})
}

// TestReaderDeclinesPastTermDepth: nesting deeper than parser.MaxTermDepth
// is declined by the reader, so Prepare reports the tree parser's error at
// its line:col, the one the server answers 400 parse_error with; so is a
// term that counts more than parser.MaxTermCount applications, or a data
// constant the lexer finds too large. A term nested up to the cap, whose
// numerals and +n sugar count up to parser.MaxTermCount, is the reader's.
func TestReaderDeclinesPastTermDepth(t *testing.T) {
	const max, count = parser.MaxTermDepth, parser.MaxTermCount
	s := deepSnapshot(t, "@functional Q/1. Q(0). Q(S) -> Q(f(S)). Even(0). Even(T) -> Even(T+2). P(a).")
	nested := func(n int, base string) string { return strings.Repeat("f(", n) + base + strings.Repeat(")", n) }
	for _, tc := range []struct {
		name, text, wantErr string // wantErr "": the reader lowers it
	}{
		{"nesting at the cap", "?- Q(" + nested(max, "0") + ").", ""},
		{"nesting past the cap", "?- Q(" + nested(max+1, "0") + ").", fmt.Sprintf("1:%d: term deeper", 6+2*max)},
		{"unclosed nesting past the cap", "?- Q(" + strings.Repeat("f(", max+3), fmt.Sprintf("1:%d: term deeper", 6+2*max)},
		{"numeral at the cap", fmt.Sprintf("?- Even(%d).", max), ""},
		{"numeral past the cap", fmt.Sprintf("?- Even(%d).", max+1), ""},
		{"+n past the cap", fmt.Sprintf("?- Even(0+%d).", max+1), ""},
		{"combined past the cap", "?- Q(" + nested(max-10, "6") + "+5).", ""},
		{"combined at the cap", "?- Q(" + nested(max-10, "6") + "+4).", ""},
		{"past the cap on a later line", "?- Even(2),\n  Q(" + nested(max-2, "3") + ").", ""},
		{"numeral at the count bound", fmt.Sprintf("?- Even(%d).", int64(count)), ""},
		{"numeral past the count bound", fmt.Sprintf("?- Even(%d).", int64(count)+1), "1:9: number too large"},
		{"+n past the count bound", fmt.Sprintf("?- Even(%d+1).", int64(count)), "1:9: number too large"},
		{"nesting and numeral past the count bound", fmt.Sprintf("?- Q(f(%d)).", int64(count)), "1:8: number too large"},
		{"a data constant too large", "?- P(99999999999).", "1:6: number too large"},
	} {
		read := s.readGround(tc.text) != nil
		_, err := s.Prepare(context.Background(), tc.text)
		_, treeErr := parser.ParseQueryTab(s.tab, tc.text)
		var pe *parser.ParseError
		switch {
		case tc.wantErr == "":
			if !read || err != nil {
				t.Errorf("%s: read %v, Prepare: %v", tc.name, read, err)
			}
		case read:
			t.Errorf("%s: the reader lowered it", tc.name)
		case !errors.As(err, &pe) || treeErr == nil || err.Error() != treeErr.Error():
			t.Errorf("%s: Prepare: %v; the tree parser: %v", tc.name, err, treeErr)
		case !strings.HasPrefix(err.Error(), tc.wantErr):
			t.Errorf("%s: Prepare: %.80v, want %s…", tc.name, err, tc.wantErr)
		}
	}
}

// BenchmarkReadGround times readGround alone — the reader and its sink, no
// plan cache and no plan — on sixteen depth-512 texts of each deep family,
// one text per iteration.
func BenchmarkReadGround(b *testing.B) {
	for _, f := range deepFamilies {
		b.Run(f.name, func(b *testing.B) {
			s := deepSnapshot(b, f.src)
			texts := make([]string, 16)
			for i := range texts {
				texts[i] = datagen.DeepQuery(f.name, f.n, 512, int64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.readGround(texts[i%len(texts)]) == nil {
					b.Fatal("the reader declined a deep ground query")
				}
			}
		})
	}
}
