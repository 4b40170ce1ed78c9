GO ?= go

.PHONY: all check build test test-bench mutate vet race race-store race-repl race-watch race-shard race-storm race-trace bench bench-store fuzz fuzz-smoke govulncheck staticcheck tables examples clean

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
# byte bounds (its bytes a constant, whatever the query text's length), and
# a fixed-count pass over the in-process handler benchmark (a
# compile-and-run check; its numbers are for people). And the router's twin:
# the bytes a routed plan-cache hit allocates on each side of the hop, by
# the memory profile, flat in the body size, and the allocations of each
# end: the router with its hop client, and the daemon's hop and pipeline.
# So do the answer
# specification's: the warm answers path's allocation bound, what the
# answers pool retains against the plan cache's own account, and a pass over
# the hit-path benchmark; and the one renderer's: its allocations per
# rendered tuple and a pass over its benchmark (cal, sub, rob and the dense
# Subsets(10) answer). And the write path's: how many cells one fact may
# evaluate, how many rule bodies a cold solve may fire, how many bytes and
# allocations one republish may make and that it interns no term but the
# representatives it adds (counts), the join programs against all
# three evaluators, how many atoms a join hands the matcher per rule firing
# through the argument index and that the index fires as a scan would, and a
# pass over the
# cold-compile, Extend and republish benchmarks — a join that goes quadratic
# again shows in the counts first.
# And the stores': one representation each (no Scratch twin, no map copied in
# a Freeze) and a republish that allocates the same after 250 facts as after
# 10. And a pass over the plan-miss benchmark: query text to compiled plan,
# by family and term depth, and one over the reader alone (readGround on
# sixteen depth-512 texts per family, no plan cache), with the gate that a
# fingerprint the full stats table has not seen allocates at most its key.
# And one over the flat step walk: ns per symbol
# of FlatDFA.Walk by family and depth, with the gate that it allocates
# nothing (no served path walks a flat DFA — a ground plan walks the table
# once, when it is built — so no ask-path allocation test reaches it). And
# the text hit: its allocation gate, then
# a pass over its benchmark on one core and on two, with the cached strings
# and with fresh copies of them.
test-bench:
	cd bench && $(GO) test ./...
	$(GO) test -count=1 -run 'TestAskHitAllocs' -bench 'BenchmarkServeAsk' -benchtime 200x ./internal/server/
	$(GO) test -count=1 -run 'TestRoutedAskBytes|TestRouteAskAllocs' ./internal/shard/
	$(GO) test -count=1 -run 'TestHopDispatchAllocs' ./internal/api/
	$(GO) test -count=1 -run 'TestAnswersHitAllocs|TestAnswerSpecBytes|TestAnswerSpecHitAsksNoDone' -bench 'BenchmarkPlanAnswers' -benchtime 200x ./internal/core/
	$(GO) test -count=1 -run 'TestWriteRecordAllocs' ./internal/wire/
	$(GO) test -count=1 -run 'TestRenderAllocs' -bench 'BenchmarkRender' -benchtime 200x ./internal/registry/
	$(GO) test -count=1 -run 'TestExtendTouchesDelta|TestPublishBytes|TestPublishInternsRepsOnly|TestPublishIndependentOfHistory|TestOneStore|TestColdSolveCounts' -bench 'BenchmarkColdOpen|BenchmarkExtend|BenchmarkPublish' -benchtime 50x ./internal/core/
	$(GO) test -count=1 -run 'TestCellJoins|TestJoinProbesBucket|TestJoinIndexFiresAsScan' ./internal/engine/
	$(GO) test -count=1 -run '^$$' -bench 'BenchmarkPrepareMiss' -benchtime 50x .
	$(GO) test -count=1 -run 'TestNovelFingerprintAllocs' ./internal/server/
	$(GO) test -count=1 -run 'TestPrepareMissLinear|TestPlanChargeMatchesHeap' -bench 'BenchmarkReadGround' -benchtime 200x ./internal/core/
	$(GO) test -count=1 -run 'TestRunWalk' -bench 'BenchmarkRunWalk' -benchtime 2000x ./internal/specgraph/
	$(GO) test -count=1 -run 'TestWalkKernelsZeroAlloc' -bench 'BenchmarkFlatWalk' -benchtime 2000x ./internal/specgraph/
	$(GO) test -count=1 -run 'TestGroundAskZeroAlloc' -bench 'BenchmarkTextHit' -benchtime 200000x -cpu 1,2 ./internal/core/

# The mutant table (mutants_test.go): every bug a test is there to catch,
# planted alone in a copy of the module, must fail that test — and fail it,
# not the build. About 70 s on two cores; make check does not run it.
mutate:
	FUNCDB_MUTATE=1 $(GO) test -count=1 -timeout 15m -v -run '^TestMutants$$' .

race:
	$(GO) test -race ./...

# The stores alone under the race detector: readers on successive frozen
# views of the universe, the world and a set — bare and through overlays —
# against a writer interning across index growths, and the snapshot readers
# of core and the registry against Extend. Then the plan cache's lock-free
# text level ten times over: readers against flushes, texts that share a
# key, and the striped hit counter's exact sum.
race-store:
	$(GO) test -race -count=1 ./internal/term ./internal/facts ./internal/symbols ./internal/core ./internal/registry
	$(GO) test -race -count=10 -run 'TestPlanCacheFlushUnderReaders|TestTextKeyCollisions|TestPlanHitsCountedExactly' ./internal/core

# The replication stack alone under the race detector: the record codec and
# framing, cursor tailing, the server's streaming endpoints, the replica loop,
# client failover, fdbc's shell over a local database and the process-level
# primary/replica end-to-end test.
race-repl:
	$(GO) test -race -count=1 ./internal/wire/ ./internal/api/ ./internal/store/ ./internal/replica/ ./internal/repl/ ./internal/server/ ./cmd/fdbc/ ./cmd/fdbd/

# The live-query stack alone under the race detector: the hub's worker and
# backpressure paths, the streaming endpoint, the failover watch client,
# fdbc's shell and the process-level watch-across-crash end-to-end test.
race-watch:
	$(GO) test -race -count=1 ./internal/watch/ ./internal/server/ ./internal/repl/ ./cmd/fdbc/ ./cmd/fdbd/

# The sharding stack alone under the race detector: the ring/codec/source
# unit tests, the router proxy paths, the live-reshard orchestration, the
# fdbrouter daemon smoke tests, and the process-level sharded-cluster
# end-to-end test (router + 3 groups, primary SIGKILL + live reshard under
# mixed traffic). Then the owners of a routed ask's buffers ten times over:
# no view of a reused request buffer outlives its request (the recorder, the
# stats table, the slow-query log, the plan cache), a hop connection's record
# is not reused while its frame is served and a frame past the 64 KiB cap is
# not kept, a hop client hands its encoder back only after its write has
# returned and its connection, whose storage holds the response, only once
# the relay has read it (Send's response is a copy, the caller's: refusals
# read under concurrent calls are each their own), no header value slice the
# hop or the pipeline hands out has room to append into, a request's
# deadline arms its timer only when asked to wait, and the router hands its
# body back only after forwarding.
race-shard:
	$(GO) test -race -count=1 ./internal/api/ ./internal/shard/ ./cmd/fdbrouter/
	$(GO) test -race -count=10 -run 'TestRoutedAskKeepsNoView' ./internal/server/
	$(GO) test -race -count=10 -run 'TestHopRecordHeldWhileServed|TestHopLargeFrameNotKept|TestHopEncoderBackAfterWrite|TestHopResponseHeldUntilRelayed|TestHopSendResponseIsOwned|TestHopRefusalsRaceNothing|TestHopHeaderSlicesHaveNoRoom|TestSetHeaderSlotsHaveNoRoom|TestRequestDeadlineIsLazy' ./internal/api/
	$(GO) test -race -count=10 -run 'TestRoutedBodyHeldUntilForwarded' ./internal/shard/
	$(GO) test -race -count=1 -run 'TestShardedClusterEndToEnd' ./cmd/fdbd/

# The admission-control storm under the race detector: a 2-group cluster
# behind a router, three well-behaved tenants and one abusive one; the abuser
# must be shed, the others' p99 must hold, and no goroutine may outlive the
# cluster. And the admission controller's own tests: it is the only source of
# work budgets (its limits hold the daemon's -max-qsteps,
# -max-derivation-depth and -max-arena-bytes), handed to every read and every
# watch evaluation concurrently.
race-storm:
	$(GO) test -race -count=1 -run 'TestStormShedsAbuser' ./internal/shard/
	$(GO) test -race -count=1 ./internal/admission/

# The tracing stack alone under the race detector: the recorder ring and
# traceparent codec, the server's always-on instrumentation and stats table,
# the router's span merging and /debug/traces scatter, and the process-level
# router + primary + replica distributed-trace end-to-end test. Then the
# pooled traces ten times over: a trace goes back to the pool only when the
# recorder drops its entry, and a kept entry reports its own span tree.
race-trace:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/server/ ./internal/shard/
	$(GO) test -race -count=10 -run 'TestKeptTraceKeepsItsSpans' ./internal/obs/
	$(GO) test -race -count=10 -run 'TestWrap' ./internal/api/
	$(GO) test -race -count=1 -run 'TestDistributedTraceEndToEnd' ./cmd/fdbd/

bench:
	$(GO) test -bench=. -benchmem ./...

bench-store:
	$(GO) test -run xxx -bench 'SnapshotLoad|RecompileFromSource|SpecioJSONLoad' -benchmem ./internal/store/

govulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@latest ./...

# The longer passes over the text readers: the program parser, the query
# parser and the ground reader against the tree lowering it replaced.
# And the document loader, specio's Document.Spec, which only FuzzLoadSpec reaches.
# Each line runs its own target alone, as fuzz-smoke's do.
fuzz:
	$(GO) test -run '^FuzzParse$$' -fuzz='FuzzParse$$' -fuzztime=60s ./internal/parser
	$(GO) test -run '^FuzzParseQuery$$' -fuzz=FuzzParseQuery -fuzztime=60s ./internal/parser
	$(GO) test -run '^FuzzGroundLowering$$' -fuzz=FuzzGroundLowering -fuzztime=120s -fuzzminimizetime=10s ./internal/core
	$(GO) test -run '^FuzzFingerprintSplit$$' -fuzz=FuzzFingerprintSplit -fuzztime=60s ./internal/obs
	$(GO) test -run '^FuzzLoadSpec$$' -fuzz=FuzzLoadSpec -fuzztime=120s -fuzzminimizetime=10s ./internal/core

# Short fuzz passes over everything that reads untrusted bytes: the program
# and query parsers, the ground query reader (differential: the tree lowering
# is the reference), the specio binary and JSON document readers and the
# document loader (what Read accepts, core.LoadSpec loads), the record
# framing, the WAL mutation, replication frame, manifest and snapshot meta and
# entry readers (differential targets: the decoders they replaced are the
# reference), the watch frame codec, the daemon's request-body decoder
# (differential: encoding/json is the reference), the client's
# error-envelope decoder (differential too) and the router hop's request and
# response frames (round trip, and no allocation past a bound). And the flat
# walk, identity and minimised, against Table.Walk on random strings
# (differential). (The parser
# seeds are kilobytes long; without a minimizer budget the fuzzer spends the
# pass shrinking them.) Each line runs its own target alone (-run): go test
# -fuzz first runs every test -run matches, in the fuzzer's instrumented
# build, where a timing test such as TestLongCompileFinishesAcrossReads
# fails; make test runs the unit tests uninstrumented.
fuzz-smoke:
	$(GO) test -run '^FuzzParse$$' -fuzz='FuzzParse$$' -fuzztime=30s -fuzzminimizetime=5s ./internal/parser
	$(GO) test -run '^FuzzParseQuery$$' -fuzz=FuzzParseQuery -fuzztime=30s -fuzzminimizetime=5s ./internal/parser
	$(GO) test -run '^FuzzGroundLowering$$' -fuzz=FuzzGroundLowering -fuzztime=30s -fuzzminimizetime=5s ./internal/core
	$(GO) test -run '^FuzzLoadSpec$$' -fuzz=FuzzLoadSpec -fuzztime=30s ./internal/core
	$(GO) test -run '^FuzzFingerprintSplit$$' -fuzz=FuzzFingerprintSplit -fuzztime=30s ./internal/obs
	$(GO) test -run '^FuzzBinspecRead$$' -fuzz=FuzzBinspecRead -fuzztime=30s ./internal/specio
	$(GO) test -run '^FuzzReadRecord$$' -fuzz=FuzzReadRecord -fuzztime=30s ./internal/wire
	$(GO) test -run '^FuzzMutationRecord$$' -fuzz=FuzzMutationRecord -fuzztime=30s ./internal/wire
	$(GO) test -run '^FuzzFrame$$' -fuzz=FuzzFrame -fuzztime=30s ./internal/wire
	$(GO) test -run '^FuzzManifest$$' -fuzz=FuzzManifest -fuzztime=30s ./internal/wire
	$(GO) test -run '^FuzzSnapMeta$$' -fuzz=FuzzSnapMeta -fuzztime=30s ./internal/store
	$(GO) test -run '^FuzzSnapEntry$$' -fuzz=FuzzSnapEntry -fuzztime=30s ./internal/store
	$(GO) test -run '^FuzzSpecioRead$$' -fuzz=FuzzSpecioRead -fuzztime=30s ./internal/specio
	$(GO) test -run '^FuzzDecodeFrame$$' -fuzz=FuzzDecodeFrame -fuzztime=30s ./internal/watch
	$(GO) test -run '^FuzzDecodeRequest$$' -fuzz=FuzzDecodeRequest -fuzztime=30s -fuzzminimizetime=5s ./internal/server
	$(GO) test -run '^FuzzReadError$$' -fuzz=FuzzReadError -fuzztime=30s ./internal/api
	$(GO) test -run '^FuzzHopRequest$$' -fuzz=FuzzHopRequest -fuzztime=30s ./internal/api
	$(GO) test -run '^FuzzHopResponse$$' -fuzz=FuzzHopResponse -fuzztime=30s ./internal/api
	$(GO) test -run '^FuzzFlatWalk$$' -fuzz=FuzzFlatWalk -fuzztime=30s ./internal/specgraph

tables:
	$(GO) run ./cmd/fdbench all

# Every example program, run to completion: they call the library as a user
# would, so an API change that breaks one shows here.
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
