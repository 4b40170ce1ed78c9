package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"funcdb/internal/core"
	"funcdb/internal/datagen"
)

// TestDumpReproductionsStable pins, per program, the SHA-256 of what
// `fdbc -dump` prints for the paper's reproductions built from (B, T): eq
// (R with its congruence-closure solver, §3.5), canonical and congr (the
// (C, CONGR) form, §3.6) and, for temporal programs, temporal (the lasso
// form, §4). The programs are the ones internal/core pins its own renders
// on: the acceptance corpus and the seven datagen families at small sizes.
func TestDumpReproductionsStable(t *testing.T) {
	want := map[string]string{
		"abp.fdb":        "62adb2be15063abf73a9174a5c42b3bc1f42eb9c09674e18b646c40c79cb1e47",
		"appendix.fdb":   "def68f18fd99323821353f1f5d9af5a36dc2cdaff41c95dd9e4eb8054779720c",
		"automaton1":     "027633540c59ec5b4c64116f5017a8c1c16a7d9a8f9e4eae49b1bf69ca928a47",
		"bidi1":          "54dc5e3e5c22cebbb3a941ac7fc9966922279a46c904d025e58e08995da71a42",
		"binary11.fdb":   "855f78870b0665b65bfdda5cb77cc644dc343ccf3f44110c64636901d89a8a98",
		"calendar5":      "ab8cffafa1ac51c0e2b903df9dd957be43c726ca9aac93d86e37e35ed1ce7faa",
		"chain3":         "4022dfa9bfd748e6b56aadeea656cdd5b6504b70b4e929381dfe76264fb97979",
		"deepfact.fdb":   "6dd326fc1cbb56b62c7317574b67fd7bdef969c4e162f32e25b6247b4c2c5e9d",
		"deepseed.fdb":   "504845138d1e16a5848daf9ff55c3986f5d5eb26f1e0e90a94246e96db40669b",
		"downstream.fdb": "a0620cf39ee6668ad81b50a4826f24cec07aad562b6b85fdec945368ba7d63f7",
		"emptyish.fdb":   "c23f4e09bdff4df2cc645ac7c292570958b49c6c21837cd41c567729809c66ae",
		"gridbot.fdb":    "6fef2eec9505ce9c8685e9a57d292260f2a4100e2e5173d06a6f059258039c04",
		"inference.fdb":  "7a2f88aad95c32c8ce1ef6e72107661c3fc725759c8da25cbd4a0906b1bbfcac",
		"lineage.fdb":    "3aa76df1c805c0956a8fd99db3158191971d3787bde439d6c4734d06f9b47709",
		"mod3mod5.fdb":   "a2df850f45146235349acd04626d46f74fac60c843a882e2cd34640697b78753",
		"robot4":         "5dabaff748883216081c198795169251092482fff0b14281294d386fbe33e96e",
		"subsets3":       "78d84d234aa2d205a072d83518020bd57108743ef55cfaab5f39f1669eb6904e",
		"temporal1":      "ed6d9e62201c478e4553973180297630297b2b4a2d5c4743b40778e2ca735b3e",
		"vending.fdb":    "7485ce345113bc65f3329f27fbd40526dc4921a1fd4b5339fc9534522ca78858",
		"weekdays.fdb":   "83d320684c0b98a3900e5c29fa2a91e6477462d6d2b93e7771ef8f77d6153227",
	}
	programs := map[string]string{
		"calendar5":  datagen.CalendarSrc(5),
		"chain3":     datagen.ChainSrc(3),
		"subsets3":   datagen.SubsetsSrc(3),
		"robot4":     datagen.RobotSrc(4),
		"automaton1": datagen.RandomAutomatonSrc(4, 2, 1),
		"temporal1":  datagen.RandomTemporalSrc(3, 1),
		"bidi1":      datagen.RandomBidiSrc(3, 2, 1),
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.fdb"))
	if err != nil || len(paths) != 13 {
		t.Fatalf("corpus: %v (%d files, want 13)", err, len(paths))
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		programs[filepath.Base(p)] = string(raw)
	}
	if len(programs) != len(want) {
		t.Errorf("%d programs, %d pinned hashes", len(programs), len(want))
	}
	for name, src := range programs {
		var opts core.Options
		opts.Engine.MaxCells = 1_000_000 // fdbc's default -max-cells
		db, err := core.Open(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kinds := []string{"eq", "canonical", "congr"}
		if db.Prep.Temporal {
			kinds = append(kinds, "temporal")
		}
		var b strings.Builder
		for _, kind := range kinds {
			fmt.Fprintf(&b, "-dump %s\n", kind)
			if _, err := execute(db, "dump "+kind, &b); err != nil {
				t.Fatalf("%s: dump %s: %v", name, kind, err)
			}
		}
		sum := sha256.Sum256([]byte(b.String()))
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: %v hash to\n\t%q: %q,\npinned %q", name, kinds, name, got, want[name])
		}
	}
}
