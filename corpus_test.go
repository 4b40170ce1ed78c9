package funcdb_test

import (
	"bufio"
	"context"

	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"funcdb"
)

// The acceptance corpus: each testdata/corpus/*.fdb program carries its
// expectations as %! directives:
//
//	%! true ?- Query.     the query must hold
//	%! false ?- Query.    the query must not hold
//	%! reps N             the graph specification has N representatives
//	%! temporal           the program is temporal
//
// Every expectation is checked against the graph specification and, for
// ground yes-no queries, against the snapshot of the exported document, by
// the DFA walk and by congruence closure, as well.

type corpusCase struct {
	name       string
	source     string
	queries    []corpusQuery
	wantReps   int // 0 = unchecked
	wantTempor bool
	checkTempo bool
}

type corpusQuery struct {
	query string
	want  bool
}

func loadCorpus(t *testing.T) []corpusCase {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.fdb"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("empty corpus")
	}
	var cases []corpusCase
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		c := corpusCase{name: filepath.Base(path)}
		var src strings.Builder
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			trimmed := strings.TrimSpace(line)
			if d, ok := strings.CutPrefix(trimmed, "%!"); ok {
				d = strings.TrimSpace(d)
				switch {
				case strings.HasPrefix(d, "true "):
					c.queries = append(c.queries, corpusQuery{strings.TrimSpace(d[5:]), true})
				case strings.HasPrefix(d, "false "):
					c.queries = append(c.queries, corpusQuery{strings.TrimSpace(d[6:]), false})
				case strings.HasPrefix(d, "reps "):
					n, err := strconv.Atoi(strings.TrimSpace(d[5:]))
					if err != nil {
						t.Fatalf("%s: bad reps directive %q", path, d)
					}
					c.wantReps = n
				case d == "temporal":
					c.wantTempor = true
					c.checkTempo = true
				default:
					t.Fatalf("%s: unknown directive %q", path, d)
				}
				continue
			}
			src.WriteString(line)
			src.WriteByte('\n')
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if len(c.queries) == 0 {
			t.Fatalf("%s: no query expectations", path)
		}
		c.source = src.String()
		cases = append(cases, c)
	}
	return cases
}

func TestAcceptanceCorpus(t *testing.T) {
	for _, c := range loadCorpus(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			db, err := funcdb.Open(c.source, funcdb.Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			st, err := db.Stats(context.Background())
			if err != nil {
				t.Fatalf("Stats: %v", err)
			}
			if c.checkTempo && st.Temporal != c.wantTempor {
				t.Errorf("temporal = %v, want %v", st.Temporal, c.wantTempor)
			}
			if c.wantReps != 0 && st.Reps != c.wantReps {
				t.Errorf("reps = %d, want %d", st.Reps, c.wantReps)
			}
			for _, q := range c.queries {
				got, err := db.Ask(context.Background(), q.query)
				if err != nil {
					t.Fatalf("Ask(%s): %v", q.query, err)
				}
				if got != q.want {
					t.Errorf("Ask(%s) = %v, want %v", q.query, got, q.want)
				}
			}
		})
	}
}

// TestCorpusAcrossRepresentations re-runs every ground corpus query through
// the explanation and through the snapshot of the exported document, whose
// rules are gone.
func TestCorpusAcrossRepresentations(t *testing.T) {
	for _, c := range loadCorpus(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			a := buildAll(t, c.source)
			for _, q := range c.queries {
				pq, err := a.db.ParseQuery(q.query)
				if err != nil {
					t.Fatalf("ParseQuery(%s): %v", q.query, err)
				}
				ground := true
				for i := range pq.Atoms {
					if !pq.Atoms[i].IsGround() {
						ground = false
					}
				}
				if !ground {
					continue
				}
				got, err := a.db.Ask(context.Background(), q.query)
				if err != nil {
					t.Fatalf("Ask: %v", err)
				}
				if got != q.want {
					t.Errorf("graph: Ask(%s) = %v, want %v", q.query, got, q.want)
				}
				for _, m := range []funcdb.Method{funcdb.MethodGraph, funcdb.MethodEquational} {
					got, err := a.loaded.Ask(context.Background(), q.query, funcdb.WithMethod(m))
					if err != nil || got != q.want {
						t.Errorf("loaded document (method %d): Ask(%s) = %v (err %v), want %v", m, q.query, got, err, q.want)
					}
				}
				// Explanations must agree with the verdict for single-atom
				// functional ground queries.
				if len(pq.Atoms) == 1 && pq.Atoms[0].FT != nil {
					exs, err := a.db.Explain(q.query)
					if err != nil {
						t.Fatalf("Explain(%s): %v", q.query, err)
					}
					if exs[0].Holds != q.want {
						t.Errorf("explain: %s = %v, want %v", q.query, exs[0].Holds, q.want)
					}
				}
			}
		})
	}
}

// TestCorpusExtendStability: adding a no-op (already derivable) fact must
// not change any corpus answer.
func TestCorpusExtendStability(t *testing.T) {
	for _, c := range loadCorpus(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			db, err := funcdb.Open(c.source, funcdb.Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			// Find one positive ground single-atom query and re-add it as a
			// fact; every expectation must be preserved.
			var seed string
			for _, q := range c.queries {
				if !q.want || strings.Contains(q.query, ",") {
					continue
				}
				pq, err := db.ParseQuery(q.query)
				if err != nil || len(pq.Atoms) != 1 || !pq.Atoms[0].IsGround() {
					continue
				}
				seed = strings.TrimSpace(strings.TrimPrefix(q.query, "?-"))
				break
			}
			if seed == "" {
				t.Skip("no positive ground query to reseed")
			}
			if err := db.Extend(seed); err != nil {
				t.Fatalf("Extend(%s): %v", seed, err)
			}
			for _, q := range c.queries {
				got, err := db.Ask(context.Background(), q.query)
				if err != nil {
					t.Fatalf("Ask(%s): %v", q.query, err)
				}
				if got != q.want {
					t.Errorf("after Extend(%s): Ask(%s) = %v, want %v", seed, q.query, got, q.want)
				}
			}
		})
	}
}
