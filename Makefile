GO ?= go

.PHONY: all check build test test-bench vet race race-store race-repl race-watch race-shard race-storm race-trace bench bench-store fuzz fuzz-smoke govulncheck staticcheck tables examples clean

all: check

check: build vet test test-bench

build:
	$(GO) build ./...

# bench/ is a module of its own, outside ./...: vet it too, or nothing in
# tier-1 notices when the tree stops compiling against it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

test:
	$(GO) test ./...

# bench/ is a Go module of its own (see bench/README.md), so ./... above
# never reaches it: its smoke test runs all five workloads and the traced
# run in-process for a few seconds and checks them against BENCHMARK.json.
# The request front end's gates ride along: the cached ask's allocation and
# byte bounds, and a fixed-count pass over the in-process handler benchmark
# (a compile-and-run check; its numbers are for people). So do the answer
# specification's: the warm answers path's allocation bound, what the
# answers pool retains against the plan cache's own account, and a pass over
# the hit-path benchmark. And the write path's: how many cells one fact may
# evaluate, how many rule bodies a cold solve may fire and how many bytes and
# allocations one republish may make (counts), the join programs against all
# three evaluators, and a pass over the cold-compile, Extend and republish
# benchmarks — a join that goes quadratic again shows in the counts first.
# And the stores': one representation each (no Scratch twin, no map copied in
# a Freeze) and a republish that allocates the same after 250 facts as after
# 10. And a pass over the plan-miss benchmark: query text to compiled plan,
# by family and term depth.
test-bench:
	cd bench && $(GO) test ./...
	$(GO) test -count=1 -run 'TestAskHitAllocs' -bench 'BenchmarkServeAsk' -benchtime 200x ./internal/server/
	$(GO) test -count=1 -run 'TestAnswersHitAllocs|TestAnswerSpecBytes' -bench 'BenchmarkPlanAnswers' -benchtime 200x ./internal/core/
	$(GO) test -count=1 -run 'TestExtendTouchesDelta|TestPublishBytes|TestPublishIndependentOfHistory|TestOneStore|TestColdSolveCounts' -bench 'BenchmarkColdOpen|BenchmarkExtend|BenchmarkPublish' -benchtime 50x ./internal/core/
	$(GO) test -count=1 -run 'TestCellJoins' ./internal/engine/
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkPrepareMiss' -benchtime 50x .

race:
	$(GO) test -race ./...

# The stores alone under the race detector: readers on successive frozen
# views of the universe, the world and a set — bare and through overlays —
# against a writer interning across index growths, and the snapshot readers
# of core and the registry against Extend.
race-store:
	$(GO) test -race -count=1 ./internal/term ./internal/facts ./internal/symbols ./internal/core ./internal/registry

# The replication stack alone under the race detector: the record codec and
# framing, cursor tailing, the server's streaming endpoints, the replica loop,
# client failover and the process-level primary/replica end-to-end test.
race-repl:
	$(GO) test -race -count=1 ./internal/wire/ ./internal/api/ ./internal/store/ ./internal/replica/ ./internal/repl/ ./internal/server/ ./cmd/fdbd/

# The live-query stack alone under the race detector: the hub's worker and
# backpressure paths, the streaming endpoint, the failover watch client and
# the process-level watch-across-crash end-to-end test.
race-watch:
	$(GO) test -race -count=1 ./internal/watch/ ./internal/server/ ./internal/repl/ ./cmd/fdbd/

# The sharding stack alone under the race detector: the ring/codec/source
# unit tests, the router proxy paths, the live-reshard orchestration, the
# fdbrouter daemon smoke tests, and the process-level sharded-cluster
# end-to-end test (router + 3 groups, primary SIGKILL + live reshard under
# mixed traffic).
race-shard:
	$(GO) test -race -count=1 ./internal/api/ ./internal/shard/ ./cmd/fdbrouter/
	$(GO) test -race -count=1 -run 'TestShardedClusterEndToEnd' ./cmd/fdbd/

# The admission-control storm under the race detector: a 2-group cluster
# behind a router, three well-behaved tenants and one abusive one; the abuser
# must be shed, the others' p99 must hold, and no goroutine may outlive the
# cluster.
race-storm:
	$(GO) test -race -count=1 -run 'TestStormShedsAbuser' ./internal/shard/

# The tracing stack alone under the race detector: the recorder ring and
# traceparent codec, the server's always-on instrumentation and stats table,
# the router's span merging and /debug/traces scatter, and the process-level
# router + primary + replica distributed-trace end-to-end test.
race-trace:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/server/ ./internal/shard/
	$(GO) test -race -count=1 -run 'TestDistributedTraceEndToEnd' ./cmd/fdbd/

bench:
	$(GO) test -bench=. -benchmem ./...

bench-store:
	$(GO) test -run xxx -bench 'SnapshotLoad|RecompileFromSource|SpecioJSONLoad' -benchmem ./internal/store/

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@latest ./...

fuzz:
	$(GO) test -fuzz='FuzzParse$$' -fuzztime=60s ./internal/parser

# Short fuzz passes over everything that reads untrusted bytes: the program
# and query parsers, the specio binary and JSON document readers, the record
# framing, the WAL mutation, replication frame, manifest and snapshot meta and
# entry readers (differential targets: the decoders they replaced are the
# reference), the watch frame codec, the daemon's request-body decoder
# (differential: encoding/json is the reference) and the client's
# error-envelope decoder (differential too). (The parser seeds are kilobytes
# long; without a minimizer budget the fuzzer spends the pass shrinking them.)
fuzz-smoke:
	$(GO) test -fuzz='FuzzParse$$' -fuzztime=30s -fuzzminimizetime=5s ./internal/parser
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=30s -fuzzminimizetime=5s ./internal/parser
	$(GO) test -fuzz=FuzzBinspecRead -fuzztime=30s ./internal/specio
	$(GO) test -fuzz=FuzzReadRecord -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzMutationRecord -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzFrame -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzManifest -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzSnapMeta -fuzztime=30s ./internal/store
	$(GO) test -fuzz=FuzzSnapEntry -fuzztime=30s ./internal/store
	$(GO) test -fuzz=FuzzSpecioRead -fuzztime=30s ./internal/specio
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/watch
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=30s -fuzzminimizetime=5s ./internal/server
	$(GO) test -fuzz=FuzzReadError -fuzztime=30s ./internal/api

tables:
	$(GO) run ./cmd/fdbench all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/planner
	$(GO) run ./examples/lists
	$(GO) run ./examples/temporal
	$(GO) run ./examples/offline
	$(GO) run ./examples/protocol
	$(GO) run ./examples/verify

clean:
	$(GO) clean ./...
