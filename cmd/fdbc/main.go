// Command fdbc is the funcdb compiler and query shell.
//
// Usage:
//
//	fdbc [flags] program.fdb
//
// The program file uses the surface syntax of package parser. Embedded
// "?- ..." queries are answered after compilation. Flags:
//
//	-dump graph|eq|temporal|canonical|congr|min   print a specification
//	-ask "?- Q."                              answer one yes-no query
//	-answers "?- Q."                          build an answer specification
//	-enum N                                   enumerate answers to depth N
//	-stats                                    print size and work measures
//	-export FILE                              write the spec as JSON
//	-dot FILE                                 write the automaton as DOT
//	-i                                        interactive shell
//
// Example:
//
//	fdbc -dump graph -ask '?- Meets(10, tony).' meetings.fdb
//
// Two operational subcommands ride along:
//
//	fdbc reshard -routers URL[,URL...] -db NAME -to GROUP
//
// moves a database to another shard group, live, through the fdbrouter
// fleet (see internal/shard), and
//
//	fdbc traces -remote URL [-id ID] [-n N] [-api-key KEY]
//
// lists (or fetches by ID, span tree included) the entries of a daemon's
// or router's flight recorder — the ring of recent requests every funcdb
// process keeps, errors and budget kills always retained — so a p99 spike
// or a killed query can be examined after the fact.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/obs"
	"funcdb/internal/repl"
	"funcdb/internal/shard"
	"funcdb/internal/symbols"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fdbc:", err)
		os.Exit(1)
	}
}

// runReshard is the `fdbc reshard` subcommand: a thin CLI over
// shard.Reshard.
func runReshard(args []string) error {
	fs := flag.NewFlagSet("fdbc reshard", flag.ContinueOnError)
	routers := fs.String("routers", "", "comma-separated fdbrouter base URLs (required)")
	db := fs.String("db", "", "database to move (required)")
	to := fs.String("to", "", "destination shard group name (required)")
	tailTimeout := fs.Duration("tail-timeout", 30*time.Second, "bound on the post-freeze WAL catch-up")
	drainTimeout := fs.Duration("drain-timeout", 0, "per-router in-flight write drain bound (0: router default)")
	out := fs.String("out", "", "also write the final shard map to this file")
	quiet := fs.Bool("q", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *routers == "" || *db == "" || *to == "" {
		return fmt.Errorf("usage: fdbc reshard -routers URL[,URL...] -db NAME -to GROUP")
	}
	opts := shard.ReshardOptions{
		DB:           *db,
		TargetGroup:  *to,
		Routers:      strings.Split(*routers, ","),
		TailTimeout:  *tailTimeout,
		DrainTimeout: *drainTimeout,
	}
	if !*quiet {
		opts.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := shard.Reshard(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Printf("moved %q: %s -> %s (map v%d, %d mutations replayed, watermark lsn %d)\n",
		*db, res.From, res.To, res.Map.Version, res.Replayed, res.Watermark)
	if *out != "" {
		return shard.WriteFile(*out, res.Map)
	}
	return nil
}

// runTraces is the `fdbc traces` subcommand: list or fetch the entries of
// a daemon's (or, through a router, the whole fleet's) flight recorder.
func runTraces(args []string) error {
	fs := flag.NewFlagSet("fdbc traces", flag.ContinueOnError)
	remote := fs.String("remote", "", "daemon or router base URL(s), comma-separated (required)")
	id := fs.String("id", "", "fetch one recorded trace by ID, span tree included (default: list)")
	n := fs.Int("n", 20, "how many entries to list")
	apiKey := fs.String("api-key", "", "tenant key sent as X-Api-Key")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" {
		return fmt.Errorf("usage: fdbc traces -remote URL [-id ID] [-n N] [-api-key KEY]")
	}
	c := &repl.RemoteClient{Base: *remote, APIKey: *apiKey}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *id != "" {
		e, err := c.TraceByID(ctx, *id)
		if err != nil {
			return err
		}
		printTraceEntry(os.Stdout, e, true)
		return nil
	}
	entries, err := c.Traces(ctx, *n)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("no recorded traces")
		return nil
	}
	for _, e := range entries {
		printTraceEntry(os.Stdout, e, false)
	}
	return nil
}

// printTraceEntry renders one flight-recorder entry: a single summary line
// in list mode, plus the query and the full span tree in full mode.
func printTraceEntry(w io.Writer, e *obs.TraceEntry, full bool) {
	ts := time.UnixMilli(e.TimeUnixMS).Format("15:04:05.000")
	fmt.Fprintf(w, "%s  %-11s %-9s %3d  %8dµs  %s", ts, e.Outcome, e.Endpoint, e.Status, e.DurUS, e.ID)
	if e.DB != "" {
		fmt.Fprintf(w, "  db=%s", e.DB)
	}
	if e.Node != "" {
		fmt.Fprintf(w, "  [%s]", e.Node)
	}
	fmt.Fprintln(w)
	if !full {
		return
	}
	if e.Query != "" {
		fmt.Fprintf(w, "query: %s\n", e.Query)
	}
	if e.Fingerprint != "" {
		fmt.Fprintf(w, "fingerprint: %s\n", e.Fingerprint)
	}
	if e.Tenant != "" {
		fmt.Fprintf(w, "tenant: %s\n", e.Tenant)
	}
	if e.Code != "" {
		fmt.Fprintf(w, "code: %s\n", e.Code)
	}
	repl.RenderTrace(w, e.Report)
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "reshard" {
		return runReshard(args[1:])
	}
	if len(args) > 0 && args[0] == "traces" {
		return runTraces(args[1:])
	}
	fs := flag.NewFlagSet("fdbc", flag.ContinueOnError)
	dump := fs.String("dump", "", "print a specification: graph, eq, temporal, canonical, congr or min")
	ask := fs.String("ask", "", "answer one yes-no query")
	answers := fs.String("answers", "", "build and print an answer specification")
	enum := fs.Int("enum", -1, "with -answers: enumerate ground answers to this term depth")
	stats := fs.Bool("stats", false, "print size and work measures")
	export := fs.String("export", "", "write the specification as JSON to this file")
	dot := fs.String("dot", "", "write the successor automaton as Graphviz DOT to this file")
	interactive := fs.Bool("i", false, "start an interactive shell after loading")
	lint := fs.Bool("lint", false, "report dead rules and empty predicates")
	maxCells := fs.Int("max-cells", 1_000_000, "abort if the engine needs more state cells")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fdbc [flags] program.fdb")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}

	var opts core.Options
	opts.Engine.MaxCells = *maxCells
	db, err := core.Open(string(src), opts)
	if err != nil {
		return err
	}

	if *stats {
		st, err := db.Stats(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("temporal:        %v\n", st.Temporal)
		fmt.Printf("parameters:      %s\n", st.Params)
		fmt.Printf("c / seed depth:  %d / %d\n", st.C, st.SeedDepth)
		fmt.Printf("representatives: %d\n", st.Reps)
		fmt.Printf("successor edges: %d\n", st.Edges)
		fmt.Printf("primary tuples:  %d\n", st.Tuples)
		fmt.Printf("equations |R|:   %d\n", st.Equations)
		fmt.Printf("engine rounds:   %d\n", st.Engine.Rounds)
		fmt.Printf("engine cells:    %d\n", st.Engine.Cells)
	}

	if *dump != "" {
		if _, err := execute(db, "dump "+*dump, os.Stdout); err != nil {
			return err
		}
	}

	if *lint {
		if _, err := execute(db, "lint", os.Stdout); err != nil {
			return err
		}
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			return err
		}
		if err := db.Export(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *dot != "" {
		doc, err := db.Document()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*dot, []byte(doc.DOT()), 0o644); err != nil {
			return err
		}
	}

	if *ask != "" {
		yes, err := db.Ask(context.Background(), *ask)
		if err != nil {
			return err
		}
		fmt.Printf("%s  %v\n", *ask, yes)
	}

	printAnswers := func(qsrc string) error {
		ans, err := db.Answers(context.Background(), qsrc)
		if err != nil {
			return err
		}
		fmt.Print(ans.Dump())
		if *enum >= 0 {
			fmt.Printf("ground answers to depth %d:\n", *enum)
			return ans.Paths(context.Background(), *enum, func(path []symbols.FuncID, args []symbols.ConstID) bool {
				fmt.Print("  ")
				if ans.HasFunctionalAnswers() {
					fmt.Printf("%s", ans.AppendPath(nil, path))
				}
				for _, c := range args {
					fmt.Print(" ", ans.ConstName(c))
				}
				fmt.Println()
				return true
			})
		}
		return nil
	}
	if *answers != "" {
		if err := printAnswers(*answers); err != nil {
			return err
		}
	}

	// Queries embedded in the source.
	for _, q := range db.EmbeddedQueries() {
		q := q
		fmt.Printf("\n%s\n", q.Format(db.Tab()))
		ans, err := db.Answers(context.Background(), q.Format(db.Tab()))
		if err != nil {
			return err
		}
		fmt.Print(ans.Dump())
	}

	if *interactive {
		return shell(db, os.Stdin, os.Stdout)
	}
	return nil
}
