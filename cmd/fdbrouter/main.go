// Command fdbrouter is the stateless funcdb shard router.
//
// It fronts a fleet of fdbd shard groups (each a primary plus read
// replicas) and serves the same /v1 JSON API clients already speak:
// per-database requests are proxied to the owning group — writes to its
// primary, reads balanced across healthy members — and catalog-wide
// requests (GET /v1/dbs, cross-database POST /v1/batch) scatter to every
// group and gather with per-shard deadlines and explicit partial-failure
// envelopes. Watch streams pass through to the owning group and are cut
// (with a retryable end) when a reshard moves their database.
//
// The router holds no durable state. Placement comes from a versioned
// shard map (see internal/shard): loaded from -map at startup, hot
// reloaded when the file changes, and replaceable at runtime via
// PUT /v1/shardmap — the path `fdbc reshard` uses to freeze, drain and
// flip ownership during a live move. Any number of routers can run side
// by side behind a TCP balancer; they coordinate only through the map.
//
// Usage:
//
//	fdbrouter -addr :8440 -map shardmap.json
//
// Flags:
//
//	-addr            listen address
//	-map             shard-map JSON file (optional: without it the router
//	                 starts unready and waits for PUT /v1/shardmap)
//	-poll            shard-map file poll interval
//	-shard-timeout   per-shard deadline for proxied and fan-out legs
//	-trace-buffer    flight-recorder capacity in entries (0: default 1024;
//	                 negative disables the recorder and router tracing)
//	-trace-sample    keep 1 in N unremarkable proxied requests recorded
//	-log-level       debug, info, warn or error
//	-log-format      text or json
//
// The router reaches fdbd over persistent connections upgraded with
// GET /v1/hop: each non-streaming request and its response cross as one
// wire record each, one request in flight per connection (package api).
// Watch streams are proxied over plain HTTP. A daemon that refuses the
// upgrade counts as a failed node, so a fleet upgrades its daemons before
// its routers.
//
// Every proxied request runs under a W3C traceparent trace: the router
// adopts the client's trace ID (or mints one), injects the header toward
// the shard, and for traced queries merges the shard's span tree into its
// own before responding. GET /debug/traces scatter-gathers the flight
// recorders of every shard endpoint plus the router's own.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"funcdb/internal/obs"
	"funcdb/internal/shard"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fdbrouter:", err)
		os.Exit(1)
	}
}

type routerConfig struct {
	mapPath      string
	poll         time.Duration
	shardTimeout time.Duration
	traceBuffer  int
	traceSample  int
	logger       *slog.Logger
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fdbrouter", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8440", "listen address")
	mapPath := fs.String("map", "", "shard-map JSON file; empty starts unready until PUT /v1/shardmap")
	poll := fs.Duration("poll", 2*time.Second, "shard-map file poll interval")
	shardTimeout := fs.Duration("shard-timeout", 5*time.Second, "per-shard deadline for proxied and fan-out requests")
	traceBuffer := fs.Int("trace-buffer", 0, "flight-recorder capacity in entries (0: default; negative disables)")
	traceSample := fs.Int("trace-sample", 0, "keep 1 in N unremarkable proxied requests in the flight recorder (0: default)")
	logLevel := fs.String("log-level", "info", "minimum structured-log level: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "structured-log encoding: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, ln, routerConfig{
		mapPath:      *mapPath,
		poll:         *poll,
		shardTimeout: *shardTimeout,
		traceBuffer:  *traceBuffer,
		traceSample:  *traceSample,
		logger:       logger,
	}, out)
}

// serve runs the router on ln until ctx is cancelled, then drains
// in-flight requests. The listener is always closed on return.
func serve(ctx context.Context, ln net.Listener, rc routerConfig, out io.Writer) error {
	src := shard.NewSource(nil)
	src.SetLogger(rc.logger)
	defer src.Close()
	if rc.mapPath != "" {
		if err := src.WatchFile(rc.mapPath, rc.poll); err != nil {
			ln.Close()
			return fmt.Errorf("shard map %s: %w", rc.mapPath, err)
		}
		m := src.Current()
		fmt.Fprintf(out, "fdbrouter: shard map v%d (%d group(s)) from %s\n",
			m.Version, len(m.Groups), rc.mapPath)
	} else {
		fmt.Fprintln(out, "fdbrouter: no -map; unready until a map arrives via PUT /v1/shardmap")
	}
	rt := shard.NewRouter(src, shard.Options{
		ShardTimeout: rc.shardTimeout,
		TraceBuffer:  rc.traceBuffer,
		TraceSample:  rc.traceSample,
		Logger:       rc.logger,
	})
	srv := &http.Server{
		Handler:           rt,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(out, "fdbrouter: listening on http://%s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "fdbrouter: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Cut proxied watch streams first: their handlers end and return, so
	// the graceful drain below is not held open by long-lived
	// subscriptions.
	rt.Close()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
