// Package repl is the client side of fdbd: the remote shell behind fdbq -i,
// which answers every command through a running daemon's JSON API, the
// failover client under it, and the watch client. (fdbc's shell over an
// in-process database lives with fdbc.)
package repl

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/obs"
)

const remoteHelpText = `commands:
  ?- Atom.             yes-no answer from the daemon (program entries take
                       surface syntax, spec entries Pred(TERM, args...))
  ask ?- Atom.         same as a bare query
  add Fact(args).      append ground facts durably (new catalog version)
  info                 describe the database on the daemon
  help                 this text
  quit                 leave
`

// RemoteClient calls one database on a running fdbd deployment. Every
// error carries the daemon's {"error":{"code","message"}} message, not
// just the status code.
//
// Base may list several endpoints separated by commas — typically the
// primary and its read replicas, in any order. Requests are tried against
// the most recently working endpoint first and fail over on transport
// errors, 5xx responses, and writes refused by a read replica (403 with
// code read_only_replica), so one client works against the whole
// replication topology without knowing which node is which. What fails
// over, what is retried after a pause and what is final is api's policy
// (api.Failover, api.RetryDelay), the same one the router applies.
type RemoteClient struct {
	// Base is one daemon base URL, or several comma-separated, e.g.
	// "http://primary:8344,http://replica:8345".
	Base string
	// DB is the database name on the daemon.
	DB string
	// Trace asks the daemon for a per-stage span trace with every query;
	// the shell renders it as an indented tree after the answer.
	Trace bool
	// APIKey identifies the tenant to daemons running admission control;
	// sent as the X-Api-Key header on every request. Empty means anonymous.
	APIKey string
	// HTTP is the client used for requests and watch streams; nil means the
	// process-wide default (requests get api.DefaultTimeout, streams none).
	HTTP *api.Client

	// preferred is the index of the endpoint that served the last
	// successful request; failover rotates from here.
	preferred atomic.Int32
}

// Endpoints returns Base split into trimmed base URLs.
func (c *RemoteClient) Endpoints() []string {
	var eps []string
	for _, e := range strings.Split(c.Base, ",") {
		if e = strings.TrimSuffix(strings.TrimSpace(e), "/"); e != "" {
			eps = append(eps, e)
		}
	}
	return eps
}

// RemoteError is a non-2xx daemon response: the HTTP status, the decoded
// {"error":{"code","message"}} envelope and the Retry-After header.
type RemoteError = api.Error

// do sends rq — its URL a path, resolved against each endpoint in failover
// order — as the client's tenant, and decodes the JSON answer into out. For
// explicitly transient refusals — a database frozen mid-reshard (409
// resharding), sheds (429), a router that lost its shard group (502 with
// Retry-After) — it repeats the whole sweep after the server-suggested
// pause. The attempt budget bounds the total wait to a few seconds; a
// client that needs to outlast a longer outage should loop itself.
func (c *RemoteClient) do(ctx context.Context, rq api.Request, out any) error {
	const maxAttempts = 8
	path := rq.URL
	rq.APIKey = c.APIKey
	eps := c.Endpoints()
	backoff := 200 * time.Millisecond
	for attempt := 0; ; attempt++ {
		var raw []byte
		served, err := c.HTTP.Sweep(ctx, eps, int(c.preferred.Load()), func(_, i int) (err error) {
			rq.URL = eps[i] + path
			raw, err = c.HTTP.Do(ctx, rq)
			return err
		})
		if err == nil {
			c.preferred.Store(int32(served))
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(raw, out); err != nil {
				return fmt.Errorf("bad response from daemon: %w", err)
			}
			return nil
		}
		wait, ok := api.RetryDelay(err, backoff)
		if !ok || attempt == maxAttempts-1 || ctx.Err() != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// get is do for a bodiless GET.
func (c *RemoteClient) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, api.Request{Method: http.MethodGet, URL: path}, out)
}

// post returns a POST of body as JSON, for do.
func post(path string, body map[string]any) api.Request {
	raw, _ := json.Marshal(body) // strings and bools: cannot fail
	return api.Request{Method: http.MethodPost, URL: path, Body: raw, ContentType: api.ContentJSON}
}

// Ask answers a yes-no query, reporting the catalog version that answered.
func (c *RemoteClient) Ask(ctx context.Context, q string) (bool, uint64, error) {
	yes, version, _, err := c.AskTrace(ctx, q)
	return yes, version, err
}

// AskTrace is Ask additionally returning the daemon's per-stage trace when
// the client asks for one (Trace field); the report is nil otherwise.
func (c *RemoteClient) AskTrace(ctx context.Context, q string) (bool, uint64, *obs.Report, error) {
	req := map[string]any{"query": q}
	if c.Trace {
		req["trace"] = true
	}
	rq := post("/v1/db/"+c.DB+"/ask", req)
	if c.Trace {
		// Originate the trace ID on the client, so the same ID names this
		// request in every flight recorder it passes through — router,
		// shard, replica — and can be fetched again later by that ID.
		rq.Traceparent = obs.FormatTraceparent(obs.NewTraceID(), obs.NewSpanID())
	}
	var resp struct {
		Answer  bool        `json:"answer"`
		Version uint64      `json:"version"`
		Trace   *obs.Report `json:"trace"`
	}
	if err := c.do(ctx, rq, &resp); err != nil {
		return false, 0, nil, err
	}
	return resp.Answer, resp.Version, resp.Trace, nil
}

// RenderTrace writes a trace report as an indented span tree followed by
// the engine counters, e.g.
//
//	trace 4f1d2c3b4a5e6f70 (312 µs)
//	  compile              298 µs
//	    solve              211 µs
//	      fixpoint_round    64 µs
//	  parse                  4 µs
//	counters: derivation_depth=3 fixpoint_rounds=4
func RenderTrace(w io.Writer, r *obs.Report) {
	if r == nil {
		return
	}
	fmt.Fprintf(w, "trace %s (%d µs)\n", r.ID, r.DurUS)
	children := make(map[int][]obs.Span)
	for _, s := range r.Spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, s := range children[parent] {
			indent := strings.Repeat("  ", depth+1)
			fmt.Fprintf(w, "%s%-*s %d µs\n", indent, 24-2*depth, s.Name, s.DurUS)
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	if r.DroppedSpans > 0 {
		fmt.Fprintf(w, "  (%d spans dropped)\n", r.DroppedSpans)
	}
	if len(r.Counters) > 0 {
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(w, "counters:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, r.Counters[k])
		}
		fmt.Fprintln(w)
	}
}

// Traces lists recent flight-recorder entries from the daemon (or, through
// a router, the merged fleet view). Entries come back newest first with
// their span reports stripped; fetch one by ID for the full tree.
func (c *RemoteClient) Traces(ctx context.Context, n int) ([]*obs.TraceEntry, error) {
	path := "/debug/traces"
	if n > 0 {
		path += "?n=" + strconv.Itoa(n)
	}
	var resp struct {
		Traces []*obs.TraceEntry `json:"traces"`
	}
	if err := c.get(ctx, path, &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// TraceByID fetches one recorded trace, span tree included.
func (c *RemoteClient) TraceByID(ctx context.Context, id string) (*obs.TraceEntry, error) {
	var e obs.TraceEntry
	if err := c.get(ctx, "/debug/traces/"+id, &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// AddFacts appends ground facts to the database, durably if the daemon
// runs with a data directory. Returns the new catalog version.
func (c *RemoteClient) AddFacts(ctx context.Context, facts string) (uint64, error) {
	var resp struct {
		Version uint64 `json:"version"`
	}
	if err := c.do(ctx, post("/v1/db/"+c.DB+"/facts", map[string]any{"facts": facts}), &resp); err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// Put creates or replaces the client's database from src: program surface
// syntax or an exported specification document.
func (c *RemoteClient) Put(ctx context.Context, src []byte) error {
	return c.do(ctx, api.Request{Method: http.MethodPut, URL: "/v1/db/" + c.DB, Body: src}, nil)
}

// Info returns the daemon's description of the database as rendered JSON.
func (c *RemoteClient) Info(ctx context.Context) (map[string]any, error) {
	var resp map[string]any
	if err := c.get(ctx, "/v1/db/"+c.DB, &resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// newScanner builds the shell's line scanner: 1MB lines, so a large pasted
// fact block still fits.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return sc
}

// RunRemote reads commands from r and answers them through the daemon
// until EOF or quit, under ctx. Each command runs under a context armed to
// cancel on SIGINT, so Ctrl-C mid-query aborts the in-flight request and
// returns to the prompt instead of killing the shell; at the prompt (no
// command in flight) SIGINT keeps its default behavior.
func RunRemote(ctx context.Context, c *RemoteClient, r io.Reader, w io.Writer) error {
	sc := newScanner(r)
	fmt.Fprintf(w, "%s> ", c.DB)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		cmdCtx, stop := signal.NotifyContext(ctx, os.Interrupt)
		quit, err := ExecuteRemoteContext(cmdCtx, c, line, w)
		canceled := cmdCtx.Err() != nil
		stop()
		if err != nil {
			if canceled || errors.Is(err, context.Canceled) {
				fmt.Fprintln(w, "canceled")
			} else {
				fmt.Fprintf(w, "error: %v\n", err)
			}
		}
		if quit {
			return nil
		}
		fmt.Fprintf(w, "%s> ", c.DB)
	}
	fmt.Fprintln(w)
	return sc.Err()
}

// ExecuteRemoteContext runs one remote command line under ctx and reports
// whether the session should end.
func ExecuteRemoteContext(ctx context.Context, c *RemoteClient, line string, w io.Writer) (quit bool, err error) {
	switch {
	case line == "" || strings.HasPrefix(line, "%"):
		return false, nil
	case line == "quit" || line == "exit":
		return true, nil
	case line == "help":
		fmt.Fprint(w, remoteHelpText)
		return false, nil
	case line == "info":
		info, err := c.Info(ctx)
		if err != nil {
			return false, err
		}
		raw, err := json.MarshalIndent(info, "", "  ")
		if err != nil {
			return false, err
		}
		w.Write(append(raw, '\n'))
		return false, nil
	case strings.HasPrefix(line, "add "):
		v, err := c.AddFacts(ctx, strings.TrimSpace(strings.TrimPrefix(line, "add ")))
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "ok (version %d)\n", v)
		return false, nil
	case strings.HasPrefix(line, "ask"):
		return false, remoteAsk(ctx, c, strings.TrimSpace(strings.TrimPrefix(line, "ask")), w)
	default:
		// Anything else is a query, sent verbatim ("?- Even(4).").
		return false, remoteAsk(ctx, c, line, w)
	}
}

func remoteAsk(ctx context.Context, c *RemoteClient, q string, w io.Writer) error {
	yes, version, tr, err := c.AskTrace(ctx, q)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%v (version %d)\n", yes, version)
	RenderTrace(w, tr)
	return nil
}
