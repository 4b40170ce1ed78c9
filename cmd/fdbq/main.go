// Command fdbq answers queries from an exported specification document — no
// program, no rules, no fixpoint engine. It is the consumer side of fdbc
// -export, and doubles as a thin client for a running fdbd daemon.
//
// Usage:
//
//	fdbq -spec spec.json [flags] [QUERY ...]
//	fdbq -remote http://host:port[,http://host2:port2...] -db NAME [flags] [QUERY ...]
//
// Each QUERY is a yes-no query in the surface syntax, in either mode and for
// either kind of daemon entry:
//
//	?- Even(4).
//	?- Member(ext(ext(0, a), b), a).
//	?- Member(S, a).
//
// A ground query is decided by the document's successor automaton, an open
// one holds when it has an answer. From a document alone an open query must
// be uniform (Theorem 5.1: every functional term is ground or the bare
// functional variable); any other needs the program's rules. In remote mode
// each QUERY is sent verbatim to POST /v1/db/NAME/ask. Flags:
//
//	-spec FILE     the document written by fdbc -export
//	-remote URLS   comma-separated base URLs of running fdbd daemons
//	               (instead of -spec): requests try the endpoints in order
//	               and fail over past dead nodes and read-only replicas,
//	               so a primary plus its replicas can be listed together
//	-db NAME       with -remote: the database name on the daemon
//	-add FACTS     with -remote: append ground facts ("Even(100).") to the
//	               database before answering queries — durable when the
//	               daemon runs with -data
//	-watch QUERY   with -remote: subscribe to a live query and print one
//	               line per answer delta (+ appeared, - disappeared) until
//	               interrupted; survives daemon failover by resuming at the
//	               last delivered LSN
//	-i             with -remote: interactive shell against the daemon
//	-api-key KEY   with -remote: tenant API key sent as X-Api-Key, so daemons
//	               running admission control attribute the work to you
//	-trace         with -remote: request a per-stage span trace with every
//	               query and print it as an indented tree
//	-info          print the document's (or daemon's) description
//	-dot           print the successor automaton as Graphviz DOT
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"

	"funcdb/internal/api"
	"funcdb/internal/core"
	"funcdb/internal/repl"
	"funcdb/internal/specio"
	"funcdb/internal/watch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fdbq:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fdbq", flag.ContinueOnError)
	specPath := fs.String("spec", "", "specification document (JSON)")
	remote := fs.String("remote", "", "comma-separated base URLs of running fdbd daemons (failover order)")
	dbName := fs.String("db", "", "with -remote: database name on the daemon")
	addFacts := fs.String("add", "", "with -remote: ground facts to append before answering queries")
	watchQuery := fs.String("watch", "", "with -remote: subscribe to a live query and stream answer deltas")
	interactive := fs.Bool("i", false, "with -remote: interactive shell against the daemon")
	trace := fs.Bool("trace", false, "with -remote: print a per-stage span trace for each query")
	apiKey := fs.String("api-key", "", "with -remote: tenant API key sent as X-Api-Key on every request")
	info := fs.Bool("info", false, "describe the document or daemon database")
	dot := fs.Bool("dot", false, "print the automaton as Graphviz DOT")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote != "" {
		if *specPath != "" {
			return fmt.Errorf("-spec and -remote are mutually exclusive")
		}
		return runRemote(*remote, *dbName, *apiKey, *info, *interactive, *trace, *addFacts, *watchQuery, fs.Args(), os.Stdin, out)
	}
	if *addFacts != "" || *interactive || *trace || *watchQuery != "" {
		return fmt.Errorf("-add, -i, -trace and -watch need -remote (a local spec document is immutable)")
	}
	if *specPath == "" {
		return fmt.Errorf("usage: fdbq -spec spec.json [flags] [QUERY ...]\n       fdbq -remote http://host:port -db NAME [QUERY ...]")
	}
	f, err := os.Open(*specPath)
	if err != nil {
		return err
	}
	doc, err := specio.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	snap, err := core.LoadSpec(doc)
	if err != nil {
		return err
	}

	if *info {
		fmt.Fprintf(out, "format:     %s\n", doc.Format)
		fmt.Fprintf(out, "temporal:   %v\n", doc.Temporal)
		fmt.Fprintf(out, "reps:       %d\n", len(doc.Reps))
		fmt.Fprintf(out, "edges:      %d\n", len(doc.Edges))
		fmt.Fprintf(out, "equations:  %d\n", len(doc.Equations))
		fmt.Fprintf(out, "alphabet:   %s\n", strings.Join(doc.Alphabet, " "))
		var preds []string
		for _, p := range doc.Predicates {
			kind := "data"
			if p.Functional {
				kind = "functional"
			}
			preds = append(preds, fmt.Sprintf("%s/%d (%s)", p.Name, p.Arity, kind))
		}
		fmt.Fprintf(out, "predicates: %s\n", strings.Join(preds, ", "))
	}
	if *dot {
		fmt.Fprint(out, doc.DOT())
	}

	for _, q := range fs.Args() {
		yes, err := snap.Ask(context.Background(), q)
		if err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
		fmt.Fprintf(out, "%-40s %v\n", q, yes)
	}
	return nil
}

// runRemote answers the queries through a running fdbd daemon via the
// shared remote client, so HTTP error bodies surface as messages.
func runRemote(base, db, apiKey string, info, interactive, trace bool, addFacts, watchQuery string, queries []string, in io.Reader, out io.Writer) error {
	rc := &repl.RemoteClient{Base: base, DB: db, Trace: trace, APIKey: apiKey}
	ctx := context.Background()
	endpoints := rc.Endpoints()
	if len(endpoints) == 0 {
		return fmt.Errorf("-remote lists no usable endpoint: %q", base)
	}
	if info {
		if db != "" {
			desc, err := rc.Info(ctx)
			if err != nil {
				return err
			}
			raw, err := json.Marshal(desc)
			if err != nil {
				return err
			}
			out.Write(append(raw, '\n'))
		} else {
			url := endpoints[0] + "/v1/dbs"
			body, err := rc.HTTP.Do(ctx, api.Request{Method: http.MethodGet, URL: url, APIKey: apiKey})
			if err != nil {
				return fmt.Errorf("%s: %w", url, err)
			}
			out.Write(append(bytes.TrimRight(body, "\n"), '\n'))
		}
	}
	if (len(queries) > 0 || addFacts != "" || interactive || watchQuery != "") && db == "" {
		return fmt.Errorf("-remote queries need -db NAME")
	}
	if addFacts != "" {
		v, err := rc.AddFacts(ctx, addFacts)
		if err != nil {
			return fmt.Errorf("add facts: %w", err)
		}
		fmt.Fprintf(out, "added facts (version %d)\n", v)
	}
	if len(queries) > 0 {
		// Ctrl-C aborts the in-flight request instead of waiting out the
		// HTTP client timeout.
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
		for _, q := range queries {
			yes, _, tr, err := rc.AskTrace(ctx, q)
			if err != nil {
				return fmt.Errorf("%s: %w", q, err)
			}
			fmt.Fprintf(out, "%-40s %v\n", q, yes)
			repl.RenderTrace(out, tr)
		}
	}
	if watchQuery != "" {
		return runWatch(rc, watchQuery, out)
	}
	if interactive {
		// RunRemote arms SIGINT per command: Ctrl-C mid-query cancels
		// that query and returns to the prompt; Ctrl-C at the prompt keeps
		// its default exit behavior.
		return repl.RunRemote(ctx, rc, in, out)
	}
	return nil
}

// runWatch streams live answer deltas until Ctrl-C: a header line per
// frame, then one "+"/"-" line per appearing/disappearing answer.
func runWatch(rc *repl.RemoteClient, q string, out io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	err := rc.Watch(ctx, q, repl.WatchOptions{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, "# "+format+"\n", args...)
		},
	}, func(f watch.Frame) {
		switch f.Type {
		case watch.FrameInit, watch.FrameResync:
			fmt.Fprintf(out, "%s version=%d lsn=%d (%d answers)\n", f.Type, f.Version, f.LSN, len(f.Add))
		default:
			fmt.Fprintf(out, "%s version=%d lsn=%d\n", f.Type, f.Version, f.LSN)
		}
		for _, t := range f.Add {
			fmt.Fprintf(out, "+ %s\n", t)
		}
		for _, t := range f.Del {
			fmt.Fprintf(out, "- %s\n", t)
		}
	})
	if ctx.Err() != nil {
		fmt.Fprintln(out, "watch interrupted")
		return nil
	}
	return err
}
