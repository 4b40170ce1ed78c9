package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"funcdb/internal/datagen"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// stablePrograms are the programs whose rendered specifications are pinned:
// the acceptance corpus with its own yes-no queries, and the seven datagen
// families at small sizes.
func stablePrograms(t *testing.T) map[string]struct {
	src     string
	queries []string
} {
	out := corpusPrograms(t)
	for name, src := range map[string]string{
		"calendar5":  datagen.CalendarSrc(5),
		"chain3":     datagen.ChainSrc(3),
		"subsets3":   datagen.SubsetsSrc(3),
		"robot4":     datagen.RobotSrc(4),
		"automaton1": datagen.RandomAutomatonSrc(4, 2, 1),
		"temporal1":  datagen.RandomTemporalSrc(3, 1),
		"bidi1":      datagen.RandomBidiSrc(3, 2, 1),
	} {
		c := out[name]
		c.src = src
		out[name] = c
	}
	return out
}

// dumpQueries returns the query texts whose answer specifications are pinned
// for db: the queries embedded in its source, and for every predicate of the
// original program the fully open query, plus one non-uniform query (the
// first functional predicate under the first function symbol), which is
// answered from the specification of an enlarged program.
func dumpQueries(db *Database) []string {
	tab := db.Tab()
	var out []string
	for i := range db.EmbeddedQueries() {
		out = append(out, db.EmbeddedQueries()[i].Format(tab))
	}
	var preds []symbols.PredID
	for p := range db.Prep.OriginalPreds {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
	nonUniform := false
	for _, p := range preds {
		info := tab.PredInfo(p)
		var args []string
		if info.Functional {
			args = append(args, "S")
		}
		for i := 0; i < info.Arity; i++ {
			args = append(args, fmt.Sprint("X", i))
		}
		if len(args) == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("?- %s(%s).", info.Name, strings.Join(args, ", ")))
		if !info.Functional || nonUniform {
			continue
		}
		for f := 0; f < tab.NumFuncs(); f++ {
			fi := tab.FuncInfo(symbols.FuncID(f))
			if fi.Derived || (fi.DataArity > 0 && tab.NumConsts() == 0) {
				continue
			}
			ft := "S+1"
			if fi.Name != term.SuccName {
				fargs := []string{"S"}
				for i := 0; i < fi.DataArity; i++ {
					fargs = append(fargs, tab.ConstName(symbols.ConstID(i%tab.NumConsts())))
				}
				ft = fi.Name + "(" + strings.Join(fargs, ", ") + ")"
			}
			args[0] = ft
			out = append(out, fmt.Sprintf("?- %s(%s).", info.Name, strings.Join(args, ", ")))
			nonUniform = true
			break
		}
	}
	return out
}

// TestDumpStable pins, per program, the SHA-256 of everything the
// specification renders as: Spec.Dump, Minimized.Dump, the exported JSON
// document and Answers.Dump of each query of dumpQueries (the corpus's own
// yes-no queries included). The hashes were recorded before representatives
// became table indices, so any renumbering of representatives, classes or
// edges by Build or Minimize shows here.
func TestDumpStable(t *testing.T) {
	want := map[string]string{
		"abp.fdb":        "a0f4f71d1362538c35036be83ee5023a6733d523241f0e0263d528757f948568",
		"appendix.fdb":   "3df361b226ee4aabb1b6f5b601373d50b27dd3486657cbf507d15430db98ef12",
		"automaton1":     "c47fd76294e7285894dba783839c1483bc9adc97dec0e24d786fd8a67d1116ad",
		"bidi1":          "fc6ae6282f3289d0b868b75aa5cd5e7cdbceb167ba91c76ada53abd7b7577115",
		"binary11.fdb":   "4c37d9b81648e41aae7b0d3cd26a6754b7f08c0bd43be6dd81e4db3ff1a6443f",
		"calendar5":      "62249c6c6497eccbad80f6ba843507aac6d78a2baf302dd754f2c9c4a412808d",
		"chain3":         "69128847f31e8c0255acc93367f51088e587c00c47a75961503a60641aa2fd76",
		"deepfact.fdb":   "de2f8123d39e5cc556f6bd94869aa191231a5130f03cb2c3fb8960a7200e56fd",
		"deepseed.fdb":   "6a60e9d7d4b71ee12b99a5f678ab937b501de669e18b944895043b479701466b",
		"downstream.fdb": "6ec05ea196e008f3ba80677eb013a570476a71506f577e76a406053170d4168e",
		"emptyish.fdb":   "ddf3febb0ccb1e2e89d424cc490d00d83262d7c5f35f089eba2b78c88811474b",
		"gridbot.fdb":    "8da32053cd5a284d50e1e0ceeb6b5a3264ec60a04fa8ceced66baca834aa6c34",
		"inference.fdb":  "33ccc71d432eb575b391b0dbcc537ec409bb335af84588862ef165c449eeed61",
		"lineage.fdb":    "eca5e525a8c49979fd87de8263e34519d928d2d6a199c065a05df485cc366ffe",
		"mod3mod5.fdb":   "ad7b8b8367d426a76e71ca522d4b5ea252ae2385e9300acc42ac0a9db1e9390a",
		"robot4":         "bf4fe00f549ec657f3a5cc3bdb98ab9649ff0afb556a02d805ba21eddaba55e9",
		"subsets3":       "2d923e6f68df0df553c56c80e924f8274ac36f16c2733b4909e74081d941a4d2",
		"temporal1":      "fe2698eaf868a59fcdea27e2f9bad7d60b896c5242060a068ec2bce316e6f438",
		"vending.fdb":    "a4ac2f9e76de9c25cd53f126192fbd6e33e8adec19d63e9ab744960c8bc45d44",
		"weekdays.fdb":   "5dc75ddc57937fc4fa8ded9790643d27f1332f51d62ca71bfdec2341c6cbefd8",
	}
	programs := stablePrograms(t)
	if len(programs) != len(want) {
		t.Errorf("%d programs, %d pinned hashes", len(programs), len(want))
	}
	for name, p := range programs {
		db, err := Open(p.src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sp, err := db.Graph()
		if err != nil {
			t.Fatalf("%s: Graph: %v", name, err)
		}
		m, err := db.Minimized()
		if err != nil {
			t.Fatalf("%s: Minimized: %v", name, err)
		}
		var b bytes.Buffer
		b.WriteString(sp.Dump())
		b.WriteString(m.Dump())
		if err := db.Export(&b); err != nil {
			t.Fatalf("%s: Export: %v", name, err)
		}
		for _, q := range append(dumpQueries(db), p.queries...) {
			ans, err := db.Answers(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: Answers(%s): %v", name, q, err)
			}
			b.WriteString(ans.Dump())
		}
		sum := sha256.Sum256(b.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: rendered specification hashes to\n\t%q: %q,\npinned %q", name, name, got, want[name])
		}
	}
}
