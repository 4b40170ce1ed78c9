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
// sums were recorded again, once, when shapes began to count runs
// (`.succ*512`) and the fingerprint to hash eight bytes at a time: every
// shape with a repeated application changed, every fingerprint changed, and
// a numeral past MaxTermDepth became a ground query the reader answers.
//
// Texts whose ground atoms step outside the specification's alphabet are
// summed apart, on their shape and fingerprint alone: they were answered an
// error naming a symbol id ("specgraph: symbol 5 is not in the
// specification's alphabet" for ?- Member(bar(0), e1). on subsets3), and are
// false now — the one intended difference, checked here against the
// references.
func TestQueryLoweringStable(t *testing.T) {
	want := map[string][2]string{
		"abp.fdb":        {"3a00b5ce82e7a9fb804587358f00cf3fea073c9c91226f86ba48a9810aa3c31d", "13de54fa33ee0887225bfb3db6079eb5543c343a6fce818abc54b42638d0d449"},
		"appendix.fdb":   {"17614dc79aeff1d49294e79143728a15327f12b27ff92401ade28e5e6ef09ceb", "28fbc37bb90537d882e2e0f176364a6f4a210efdf37515df22ce619d4366c523"},
		"automaton1":     {"3ef9a19e18eed18bdffd47ab08b707343b391861d9fa43146651d03b4f5f9b65", "2cfee084dc8c40ce878977db0b77aaf5058fcafcc17fb792f3b05d8380ec4518"},
		"bidi1":          {"5d6713693171ef8a5966f52335053fa604b3f07739bb9d05be9f537929b92a8a", "040dd631096e5075a194582ff1357c19831bd6743ed00dc77a45ede5ef9ec4d9"},
		"binary11.fdb":   {"db418125b9bcc9221938a09e60623b0f6d2e12be7e8cfe6410f6a3b1abdcc8f4", "423232890e54685c7f59e054ab71971cade52b12bd163bab0116b566f0e74ffc"},
		"calendar5":      {"83bd2292cebf3c0abb7e02782383932fca75c1b58b5d9e857da99a67ecc78f07", "33d26d34965f36892900a3a0f7142a96559829437308c770ef2944004727b798"},
		"chain3":         {"0a3329eee45050cc5ea635f993239c490ad5f3e127e9975dbe75e7f23977a058", "1598c837d641404e46367b528f7e80fe6fce3027e50c5feb6dafa259fbfe0e19"},
		"deepfact.fdb":   {"0bed163008dc2d6ef37aff116fd3828d452c634183a740b2eb66c244c98ab535", "7e125b95581e8f107745379874ae28100f378ae52c1f0865e8e081d42c6c09d4"},
		"deepseed.fdb":   {"2df0e9c4590c914faea72ca94b64e7d4f24e483915b64229339ecb02531abdf9", "6d9083fc937fca8f7c789f00cee5083ee97eed8bfc4c2de4ce41f27aeeefb1e5"},
		"downstream.fdb": {"49fbe9433ed71be03f22c425dd1a83a025f9a20f5eb93dfb8d20a1ba0bb598aa", "f12b23961d8e6bd26da925423087e4e60c9b0536780bbc5c8513d5befb4b6733"},
		"emptyish.fdb":   {"2fb15df38e346a0a21df936d9e19e89500bea876ad76a769320990404f243a85", "29e6109d6fc3c8fd5e3fd184866e3cae1c5031b15bebe84036949c3f097a8680"},
		"gridbot.fdb":    {"be63943bff8f76335cacc454151ab07cf2d4b8d166b42f19e6506303f14647fc", "bc0f6035fd07e8e971cacb0ad8c556d3e48c057cfbfa62b7ffbe57655f077814"},
		"inference.fdb":  {"e146380f998330309702127b5da0d2a6f441a6b1732db35a1210135ff76df1c3", "a7ce5d7955af73126f711fa54d382b51cf4df90beb502d4be1b4c12c71f43a4a"},
		"lineage.fdb":    {"e00dba8cc00d00a0cc16728b9982f3fc093b16c1eeb6a8983d57902edab7b710", "e0f5cff6f489e9627335e473b7d3725133c1ebc6ade65e581bf9283bfd00663c"},
		"mod3mod5.fdb":   {"bd92990e035086d4c0802a3ba1eec00aa31c7dfabb7162748f89dc3a99b73752", "97460411dbbc44e49a4fb051e8d026a948aab4c826ac407c7da6ba1abf389c94"},
		"robot4":         {"9502afaf48915963f4cec27cbfcd488d5563a987ed71db674355aa46d4b0e6f5", "b0d53ae3f8be73c7e796dbe864878d6f7c67c2063ea8ae3b0d741e84f3ec291b"},
		"subsets3":       {"3530433b30d8114b79034819386ea0c3ea580a455658b9a0cfda5f8492e91aeb", "5270aef293053e63dfd6afcbce0c17f9eda9ac13c7f398d2d3283708ec7cf246"},
		"temporal1":      {"9a3f4c08c495db8db3eca2a30e823924c14fa550834153d96484c319973421ba", "4d6e330b3b91d821ba77f572eaeff45954b90056eb0f2039d5db2d4b56c3aa2c"},
		"vending.fdb":    {"35c96809c89ad0d3a8741d36bfcd53967fc4166e90cbdda975e24523cdc42b7b", "8d2f1ed155721b8f56acf6c86a08067104d88200315f80f041665fd11b23b634"},
		"weekdays.fdb":   {"2d5ccdd3998253ca013bad5dfe25f819a1743c55eff79de17714b9b28a1c3bbf", "a9ee2848be8c816a00e32970d53e9760a9c78bde53b145de6befd51182a15731"},
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
