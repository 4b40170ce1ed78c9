// Command bench is funcdb's one benchmark: five workloads against the
// shipping fdbd and fdbrouter binaries (and core in-process), six
// end-to-end metrics per workload, and a per-layer breakdown read from
// outside the programs. See README.md.
//
// The benchmark contract (BENCHMARK.json) invokes it as
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// which performs one run and prints one JSON result line. For people:
//
//	bench run   [-seed N] [-passes R] [-seconds S] [-json FILE]
//	bench check [-seed N] [-passes R] [-seconds S]
//	bench trace [-seed N] [-out FILE]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string) error {
	cmd := "single"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "single":
		return cmdSingle(args)
	case "run":
		return cmdRun(args, false)
	case "check":
		return cmdRun(args, true)
	case "trace":
		return cmdTrace(args)
	}
	return fmt.Errorf("unknown command %q (want run, check, trace, or --workload flags)", cmd)
}

// repoRoot walks up from the working directory to the funcdb checkout.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "fdbd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a funcdb checkout (no cmd/fdbd above the working directory)")
		}
		dir = parent
	}
}

// buildDir is where binaries, the Go build cache and scratch data go; it is
// inside the checkout and git-ignored.
const buildDir = ".bench_build"

// buildDaemons compiles the shipping binaries from the checkout's source,
// once per invocation.
func buildDaemons(root string) (launcher, error) {
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return launcher{}, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/fdbd", "./cmd/fdbrouter")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return launcher{}, fmt.Errorf("go build fdbd fdbrouter: %w", err)
	}
	return launcher{
		FDBD:    filepath.Join(bin, "fdbd"),
		Router:  filepath.Join(bin, "fdbrouter"),
		TmpRoot: filepath.Join(root, buildDir, "tmp"),
	}, nil
}

// traceConfigFor is the full-size traced run for a checkout: scratch under
// .bench_build/tmp, spans to bench/out/trace.json.
func traceConfigFor(root string, seed int64) traceConfig {
	cfg := defaultTrace
	cfg.Seed = seed
	cfg.TmpRoot = filepath.Join(root, buildDir, "tmp")
	cfg.Out = filepath.Join(root, "bench", "out", "trace.json")
	return cfg
}

// setupsFor is how many times a run sets the workload up; setup_s is the
// median. lib_ask sets up in milliseconds, so it can afford more.
func setupsFor(workload string) int {
	if workload == "lib_ask" {
		return 9
	}
	return 3
}

func newRunOpts(l launcher, workload string, seed int64, seconds float64, layers bool) runOpts {
	return runOpts{
		Workload: workload, Seed: seed, Seconds: seconds,
		Clients: runtime.NumCPU(), Setups: setupsFor(workload),
		Layers: layers, Launch: l,
	}
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a contract run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func cmdSingle(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (outside reads plus the traced run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	l, err := buildDaemons(root)
	if err != nil {
		return err
	}
	res, err := runWorkload(newRunOpts(l, *workload, *seed, *seconds, *trace == 1))
	if err != nil {
		return err
	}
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if *trace == 1 {
		rep, err := runTrace(traceConfigFor(root, *seed))
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		for name, v := range rep.Metrics {
			res.Layers[name] = v
		}
		for _, d := range perLayer {
			line.Metrics[d.Name] = metricValue{res.Layers[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = metricValue{res.E2E[d.Name], d.Unit}
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops attempted, %d failed, %d latency samples, machine speed %.3f of reference\n",
		*workload, *seed, res.Attempted, res.Failed, res.Samples, res.Scale)
	return json.NewEncoder(os.Stdout).Encode(line)
}

// report is what `bench run` writes with -json.
type report struct {
	Seed     int64                         `json:"seed"`
	Passes   int                           `json:"passes"`
	Seconds  float64                       `json:"seconds"`
	Clients  int                           `json:"clients"`
	Failed   map[string]int                `json:"failed"`     // workload -> failed operations
	EndToEnd map[string]map[string]summary `json:"end_to_end"` // workload -> metric
	PerLayer map[string]map[string]summary `json:"per_layer"`  // workload (or "trace") -> metric
	Samples  map[string]int                `json:"latency_samples"`
}

func (r *report) totalFailed() int {
	n := 0
	for _, f := range r.Failed {
		n += f
	}
	return n
}

// runSet performs passes x workloads runs, workloads interleaved round-robin
// inside each pass so machine drift hits all of them, plus one traced run
// per pass.
func runSet(l launcher, root string, seed int64, passes int, seconds float64, progress io.Writer) (*report, error) {
	rep := &report{
		Seed: seed, Passes: passes, Seconds: seconds, Clients: runtime.NumCPU(),
		EndToEnd: map[string]map[string]summary{}, PerLayer: map[string]map[string]summary{},
		Samples: map[string]int{}, Failed: map[string]int{},
	}
	e2e := map[string]map[string][]float64{}
	layers := map[string]map[string][]float64{"trace": {}}
	for pass := 0; pass < passes; pass++ {
		for _, w := range workloads {
			t0 := time.Now()
			res, err := runWorkload(newRunOpts(l, w.Name, seed+int64(pass), seconds, true))
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(progress, "pass %d/%d %-9s %6.0f ops/s  p50 %8.1f us  p95 %9.1f us  failed %d/%d  (%.0fs)\n",
				pass+1, passes, w.Name, res.E2E["ops_per_s"], res.E2E["p50_us"], res.E2E["p95_us"],
				res.Failed, res.Attempted, time.Since(t0).Seconds())
			for _, n := range res.Notes {
				fmt.Fprintf(progress, "    note: %s\n", n)
			}
			rep.Failed[w.Name] += res.Failed
			rep.Samples[w.Name] += res.Samples
			if e2e[w.Name] == nil {
				e2e[w.Name], layers[w.Name] = map[string][]float64{}, map[string][]float64{}
			}
			for k, v := range res.E2E {
				e2e[w.Name][k] = append(e2e[w.Name][k], v)
			}
			for k, v := range res.Layers {
				layers[w.Name][k] = append(layers[w.Name][k], v)
			}
		}
		tr, err := runTrace(traceConfigFor(root, seed+int64(pass)))
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		fmt.Fprintf(progress, "pass %d/%d trace     routed ask %.1f us, self times sum to %.1f%% of it\n",
			pass+1, passes, tr.Metrics["shard.route_ask_us"], tr.ChainSumOverRoute*100)
		for k, v := range tr.Metrics {
			layers["trace"][k] = append(layers["trace"][k], v)
		}
		if pass == passes-1 {
			printWaterfall(progress, tr)
		}
	}
	for w, m := range e2e {
		rep.EndToEnd[w] = map[string]summary{}
		for k, v := range m {
			rep.EndToEnd[w][k] = summarize(v)
		}
	}
	for w, m := range layers {
		rep.PerLayer[w] = map[string]summary{}
		for k, v := range m {
			rep.PerLayer[w][k] = summarize(v)
		}
	}
	return rep, nil
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "\nEND TO END  (%d passes x %.0fs, %d closed-loop clients, seeds %d..%d; median [q1, q3] noise=IQR/median)\n",
		rep.Passes, rep.Seconds, rep.Clients, rep.Seed, rep.Seed+int64(rep.Passes)-1)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%s  (%d latency samples)\n", wl.Name, rep.Samples[wl.Name])
		for _, d := range endToEnd {
			s := rep.EndToEnd[wl.Name][d.Name]
			fmt.Fprintf(w, "  %-15s %12.4f %-4s [%12.4f, %12.4f]  noise %.3f  n %d  bound %.2f\n",
				d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.Noise, s.N, d.Bound)
		}
		fmt.Fprintf(w, "  %-15s %12d\n", "failed", rep.Failed[wl.Name])
	}
	fmt.Fprintln(w, "\nPER LAYER, read from outside around the untraced runs (median over passes)")
	fmt.Fprintf(w, "  %-30s %-6s", "metric", "unit")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %12s", wl.Name)
	}
	fmt.Fprintln(w)
	for _, d := range perLayer {
		if _, traced := rep.PerLayer["trace"][d.Name]; traced {
			continue
		}
		fmt.Fprintf(w, "  %-30s %-6s", d.Name, d.Unit)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %12.4f", rep.PerLayer[wl.Name][d.Name].Median)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\nPER LAYER, traced run (per-call medians; median [q1, q3] over passes)")
	for _, d := range perLayer {
		s, traced := rep.PerLayer["trace"][d.Name]
		if !traced {
			continue
		}
		fmt.Fprintf(w, "  %-30s %12.4f %-5s [%12.4f, %12.4f]  noise %.3f  n %d\n",
			d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.Noise, s.N)
	}
}

// disagreement is how much worse b's median is than a's, as a share of a's,
// in the metric's bad direction (negative when b is better).
func disagreement(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func cmdRun(args []string, check bool) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the first pass; pass p uses seed+p")
	passes := fs.Int("passes", 3, "passes over the five workloads (the contract's time cap cut the issue's 5 to 3)")
	seconds := fs.Float64("seconds", 10, "timed phase per workload per pass")
	out := fs.String("json", "", "write the report as JSON to this file (default bench/out/results.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	l, err := buildDaemons(root)
	if err != nil {
		return err
	}
	first, err := runSet(l, root, *seed, *passes, *seconds, os.Stdout)
	if err != nil {
		return err
	}
	printReport(os.Stdout, first)
	if *out == "" {
		*out = filepath.Join(root, "bench", "out", "results.json")
	}
	raw, err := json.MarshalIndent(first, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", *out)
	if n := first.totalFailed(); n > 0 {
		return fmt.Errorf("%d operations failed", n)
	}
	if !check {
		return nil
	}
	// The second set uses the same seeds: the same code on the same inputs
	// must agree with itself within every bound.
	second, err := runSet(l, root, *seed, *passes, *seconds, os.Stdout)
	if err != nil {
		return err
	}
	fmt.Println("\nCHECK  second set against first (positive = second is worse)")
	var over []string
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := first.EndToEnd[wl.Name][d.Name], second.EndToEnd[wl.Name][d.Name]
			dis := disagreement(d, a.Median, b.Median)
			verdict := "ok"
			if dis > d.Bound {
				verdict = "OVER BOUND"
				over = append(over, wl.Name+"/"+d.Name)
			}
			fmt.Printf("  %-9s %-14s %12.4f -> %12.4f  %+7.3f  bound %.2f  %s\n",
				wl.Name, d.Name, a.Median, b.Median, dis, d.Bound, verdict)
		}
	}
	if n := second.totalFailed(); n > 0 {
		return fmt.Errorf("%d operations failed in the second set", n)
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("two sets of the same code disagree beyond the bound on %s", strings.Join(over, ", "))
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("bench trace", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the sampled queries")
	out := fs.String("out", "", "span file (default bench/out/trace.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	cfg := traceConfigFor(root, *seed)
	if *out != "" {
		cfg.Out = *out
	}
	if err := os.MkdirAll(cfg.TmpRoot, 0o755); err != nil {
		return err
	}
	rep, err := runTrace(cfg)
	if err != nil {
		return err
	}
	for _, d := range perLayer {
		if v, ok := rep.Metrics[d.Name]; ok {
			fmt.Printf("%-30s %14.4f %-5s  moves %s\n", d.Name, v, d.Unit, d.Moves)
		}
	}
	fmt.Println()
	printWaterfall(os.Stdout, rep)
	fmt.Printf("\nwrote %d spans to %s\n", len(rep.Spans), cfg.Out)
	return nil
}
