package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"funcdb/internal/obs"
	"funcdb/internal/parser"
	"funcdb/internal/symbols"
)

// TestQueryLoweringStable pins what the plan-miss path makes of query text.
// Per program, for a fixed seed of the oracle generator's texts (canonical
// spellings, respellings, numerals written as sums) and ten malformed texts
// (truncations, stray bytes, terms deeper than parser.MaxTermDepth), it
// hashes each text's shape, fingerprint and verdict, or its error text. The
// sums were recorded before the lexer stopped counting lines and columns and
// before a ground plan stopped keeping its AST.
//
// Texts whose ground atoms step outside the specification's alphabet are
// summed apart, on their shape and fingerprint alone: they were answered an
// error naming a symbol id ("specgraph: symbol 5 is not in the
// specification's alphabet" for ?- Member(bar(0), e1). on subsets3), and are
// false now — the one intended difference, checked here against the
// references.
func TestQueryLoweringStable(t *testing.T) {
	want := map[string][2]string{
		"abp.fdb":        {"e5316cb6f824b398a559b89a811f505ea70fedc0aadaec226b2b64eb2d3afd49", "d8132a8fb42fbf543349e7d822cb49424f315ef6f6a9068d34e5ee75dba7aa51"},
		"appendix.fdb":   {"d89bf1c8f1cb7c51843d910b64daaffe24981f910e7a0dca0512a094a82993ce", "7d321779615343e7818c597d49a30a468f249fc6dce61c93e5c4d9c306be54b8"},
		"automaton1":     {"fb3b607385e7d8719abe8af1ef0b391193f20f25e1cecfa3d674d0cb7abcad0e", "808af187bd3b9dcd2ab336505ea8e3c2811ae257fb3b28ce698f6689990a609f"},
		"bidi1":          {"8a59837db716eabd67ea4fa2175e9812945d45f6de41a77f181a2975b4b07eda", "c87f6c19b13aaa68d4dcac8acdeb68690ffa1a1de028008e32d06afaa3ca6f2f"},
		"binary11.fdb":   {"7a2df77ced41ac640dbd0c12984c4ce21f45f3b4dcb8f638c044b626eeefdb04", "a8f981f3d87e914d4218ec03695c7ed7249d384fc8c6cb6596ca861a29e4f062"},
		"calendar5":      {"87c92ec6532d35fb982b56c36bf0ff5c839cf51daee59994217f554d0a38c3b8", "3a341798b144f2131bf066f13d63904fb90d63c32c9e7f80b6b1b9ada2ad2f64"},
		"chain3":         {"02c1f21652541d422b22497f5f39ddaab1069d8148b849e45827e9b503ace2c6", "59f61a313605dbcc961bd1f496918a7db5f70202b07a338121e3ed6723594c81"},
		"deepfact.fdb":   {"7fa51d8a1e2f482e934a9dc2c6e95b0a66b6b0a8f1dc4a21680764555e298cc0", "70a51a41eb8280444c300e338087f5b972dddd8599aed4879c64a6d45756e9d3"},
		"deepseed.fdb":   {"b6fc1575800779823d3b19240c11e39c23569bb8ed0b79991023bd1b95d5fac0", "064e2316640252cf2a2e292f62f6b9eef984c9feb0713a3309956109e9ed901b"},
		"downstream.fdb": {"717e5a374714c9fad1720851c836e30e2119f66ddda2696094330530038d406c", "3a62fe078ec7c434e2b9dbf5a65b3d525b55353348f3cace1643b710b32b9515"},
		"emptyish.fdb":   {"9c2d100f3f04d0a15b4b16e32255a53bd13dd97392007e0e18306f0f4271cb4c", "150dadfa293c04626c154caaac5862ad646e1e34f7bbbe43bc6fe707449b6acd"},
		"gridbot.fdb":    {"7e0aeaca206e87b81bad3aa9f7467d051a35fc4461755adee667117fad3eab05", "0ba447a368169b40a54db53a8816b43e98f0f4fc949d8e16ddd33880f834a16d"},
		"inference.fdb":  {"8f2dc2b57fd0f42bc81ac3f3a9cfa9af98a15ef5b999fad3fa27ae01245a180b", "27edf9afd63f2d573336f36541ccf4bc4f446bc6eab3c634c2f4eff66f991439"},
		"lineage.fdb":    {"26ff9f2980f872eecd7a8dcfef0a0ac38cc2287c05298c10ed2b3cdd3af7e662", "21b3f3cbfac7af92b2d68e665cad457cff23f71ba9155402c7bfb7336baccb93"},
		"mod3mod5.fdb":   {"e7f70afbbddfc286a7ee8881ad2553db2cf494bb31dff1dc4ee868cedaa4bdcd", "7b027eb7a7cfa0f90c6ab7edee30425eb1144d9d5a1ade47b87d8aa86165dd97"},
		"robot4":         {"cf94b3c153fd1fdab7bfc14b7b93175b3bec6a32a388c800b61d970541ec0d2b", "a662a5323787d30c701616c29bccd87aa3c3d43f31e74ef02317a6be68fb9740"},
		"subsets3":       {"d4e2d79683c7092f37c70e685fe5cacbf5e760f76d0d7f8666f66526b38e2c1d", "947ff15d8c5dea9a46e53906bd455577ea157ee1b16b84f6ed6873c072c093d6"},
		"temporal1":      {"bd871f7ecdd958c3a5aaf3b7f8bb637b083925222f7340cb4ae95423c56462c2", "84d3192878c04b0dd74c9f1e9e3b7cd8de3119d5348a1a5458eb387da7c08f80"},
		"vending.fdb":    {"c0e67842fbe309fdf0d1656584a0d89c17635474c5448c305590a596e29cdf77", "bde463fd02488b4371388641252edc72015948ab9a5686776b20566ebcf4c27b"},
		"weekdays.fdb":   {"4b3bf78d18fed82f5c3d1c72b1000f5d1474d251e90a74e12c2a6c40877b16f2", "4859433e900a5a2c45530ef8e411e5e68c4415be438dfccd6660a95cc764f517"},
	}
	for pi, op := range oraclePrograms(t) {
		r := rand.New(rand.NewSource(int64(1000 + pi)))
		h, hf := sha256.New(), sha256.New()
		texts := 0
		for i := 0; i < 60; i++ {
			c := oracleCase{op, op.gen(r), r.Int63()}
			for _, sp := range c.spellings() {
				lowerStable(t, op, h, hf, sp.text)
				texts++
			}
		}
		for i := 0; i < 10; i++ {
			lowerStable(t, op, h, hf, op.malformedText(r, i))
			texts++
		}
		got := [2]string{hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(hf.Sum(nil))}
		if got != want[op.name] {
			t.Errorf("%s: %d texts lower to\n\t%q: {%q, %q},\npinned %q", op.name, texts, op.name, got[0], got[1], want[op.name])
		}
	}
}

// lowerStable writes what Prepare and Ask make of text into h, or, for a
// text stepping outside the alphabet, its shape and fingerprint into hf.
func lowerStable(t *testing.T, op *oracleProgram, h, hf hash.Hash, text string) {
	ctx := context.Background()
	if outsideAlphabet(op, text) {
		tab := symbols.NewTableOver(op.snap.tab)
		q, err := parser.ParseQueryTab(tab, text)
		if err != nil {
			t.Fatalf("%s: %q: %v", op.name, text, err)
		}
		shape := QueryShape(q, tab)
		fmt.Fprintf(hf, "%q %q %s\n", text, shape, obs.Fingerprint(shape))
		ok, err := op.snap.Ask(ctx, text)
		if ref, rerr := (specOracle{op}).Ask(text); err != nil || rerr != nil || ok || ref {
			t.Errorf("%s: %q outside the alphabet = %v, %v; the specification walk says %v, %v", op.name, text, ok, err, ref, rerr)
		}
		return
	}
	p, err := op.snap.Prepare(ctx, text)
	if err != nil {
		fmt.Fprintf(h, "%q error %q\n", text, err)
		return
	}
	ok, err := p.Ask(ctx)
	verdict := strconv.FormatBool(ok)
	if err != nil {
		verdict = "error " + strconv.Quote(err.Error())
	}
	fmt.Fprintf(h, "%q %q %s %s\n", text, p.Shape(), p.Fingerprint(), verdict)
}

// outsideAlphabet reports whether text is a well-formed ground query with a
// functional atom over a symbol the specification's alphabet lacks.
func outsideAlphabet(op *oracleProgram, text string) bool {
	atoms, err := op.lower(text)
	if err != nil {
		return false
	}
	for _, a := range atoms {
		if _, _, in := op.sp.Walk(a.syms); a.fn && !in {
			return true
		}
	}
	return false
}

// malformedText breaks a generated query's canonical text: cut at a byte,
// a stray byte inserted or written over one, a term past MaxTermDepth.
func (op *oracleProgram) malformedText(r *rand.Rand, i int) string {
	c := oracleCase{op, op.gen(r), 0}
	text := c.spellings()[0].text
	switch i {
	case 0, 1, 2:
		return text[:r.Intn(len(text))]
	case 3, 4, 5:
		at := r.Intn(len(text) + 1)
		return text[:at] + string([]byte{byte(r.Intn(256))}) + text[at:]
	case 6, 7:
		b := []byte(text)
		b[r.Intn(len(b))] = byte(r.Intn(256))
		return string(b)
	}
	fn := ""
	for _, p := range op.preds {
		if p.fn && p.arity == 0 {
			fn = p.name
			break
		}
	}
	if fn == "" {
		return text + strings.Repeat(")", r.Intn(3))
	}
	if i == 8 {
		return fmt.Sprintf("?- %s(%d).", fn, parser.MaxTermDepth+1+r.Intn(5))
	}
	n := parser.MaxTermDepth + 1 + r.Intn(3)
	return "?- " + fn + "(" + strings.Repeat("f(", n) + "0" + strings.Repeat(")", n) + ")."
}
