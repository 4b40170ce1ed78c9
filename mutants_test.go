package funcdb_test

// mutants is the mutant table: bugs this code could have, each planted in the
// code that ships by exact edits, and the tests that must catch it. TestMutants
// (make mutate) applies one row at a time to a copy of the module and requires
// `go test -run <run> <pkg>` to fail there. A row goes stale when its code
// changes: an old snippet that no longer occurs exactly once fails the gate,
// and the row is rewritten against the new code.
var mutants = []mutant{
	// The text level of the plan cache keys on a sample of the text.
	{name: "text_level_trusts_the_key", pkg: "./internal/core", run: "^TestTextKeyCollisions$",
		edits: []edit{{"internal/core/plan.go", "if n.src == src {", "if true {"}}},

	// A ground plan's verdict, held to every other backend by the oracle.
	{name: "repeated_layer_left_out_of_the_walk", pkg: "./internal/core", run: "^TestGroundOracle$",
		edits: []edit{{"internal/specgraph/runs.go", "\t\tstate = trans[int(state)*k+int(s)]\n\t\tswitch {", "\t\tswitch {"},
			{"internal/specgraph/runs.go", "\t\tsym, count = s, 1\n\t}\n\tw.runs, w.sym, w.count, w.state", "\t\tsym, count = s, 1\n\t\tstate = trans[int(state)*k+int(s)]\n\t}\n\tw.runs, w.sym, w.count, w.state"}}},
	{name: "atoms_after_the_first_ignored", pkg: "./internal/core", run: "^TestGroundOracle$",
		edits: []edit{{"internal/core/lower.go", "for i := range steps {", "for i := range steps[:min(len(steps), 1)] {"}}},

	// A ground plan is its verdict: it keeps no steps and takes no shape
	// slot, and the equational method reads its text again each call.
	{name: "equational_ask_returns_the_verdict", pkg: "./internal/core", run: "^TestEquationalAskIsTraced$",
		edits: []edit{{"internal/core/plan.go", "return s.congruent(ctx, g.steps)", "return p.verdict, nil"}}},
	{name: "ground_plan_in_the_shapes_map", pkg: "./internal/core", run: "^TestGroundMissAllocs$",
		edits: []edit{{"internal/core/plan.go",
			"\t\t\te = &planEntry{plan: p}\n\t\t\tpc.store(key, src, e)",
			"\t\t\te = &planEntry{plan: p}\n\t\t\tif pc.shapes == nil {\n\t\t\t\tpc.shapes = make(map[string]*planEntry)\n\t\t\t}\n\t\t\tpc.shapes[p.shape] = e\n\t\t\tpc.store(key, src, e)"}}},
	{name: "reread_sees_the_last_texts_steps", pkg: "./internal/core", run: "^(TestGroundOracle|TestEquationalRereadsItsText)$",
		edits: []edit{{"internal/core/lower.go", "\tclear(g.steps[:cap(g.steps)])\n\tsteps, runs := g.steps[:0], g.runs[:0]", "\tsteps, runs := g.steps, g.runs[:0]"}}},

	// The join's argument index: buckets, windows, keys.
	{name: "buckets_miss_later_atoms", pkg: "./internal/engine", run: "^TestCellJoins$",
		edits: []edit{{"internal/facts/facts.go", "if ps.probes[i].pred == p {", "if ps.probes[i].pred == p && false {"}}},
	{name: "add_files_no_built_bucket", pkg: "./internal/facts", run: "^(TestSetProbe|TestFrozenReadersRaceWriter)$",
		edits: []edit{{"internal/facts/facts.go", "if ps.probes[i].pred == p {", "if ps.probes[i].pred == p && false {"}}},
	{name: "window_unclipped_above", pkg: "./internal/engine", run: "^TestJoinIndexFiresAsScan$",
		edits: []edit{{"internal/engine/engine.go", "v, lo, lo+len(e.ext[i]))", "v, lo, len(set.ByPred(l.Pred)))"}}},
	{name: "window_unclipped_below", pkg: "./internal/engine", run: "^TestJoinIndexFiresAsScan$",
		edits: []edit{{"internal/engine/engine.go", "v, lo, lo+len(e.ext[i]))", "v, 0, lo+len(e.ext[i]))"}}},
	{name: "key_from_the_literals_own_register", pkg: "./internal/engine", run: "^(TestCellJoins|TestJoinProbesBucket|TestJoinIndexFiresAsScan)$",
		edits: []edit{{"internal/normform/normform.go",
			"if !d.IsVar() || slices.Index(regs, d.Var) >= 0 {\n\t\t\t\tl.Key = k",
			"if !d.IsVar() || true {\n\t\t\t\tl.Key = k"}}},

	// A solve the context stops resumes where its round stopped.
	{name: "stopped_round_starts_over", pkg: "./internal/engine", run: "^TestStoppedSolveResumes$",
		edits: []edit{{"internal/engine/engine.go", "for i := e.resume; i < len(e.cells); i++ {", "for i := 0; i < len(e.cells); i++ {"}}},

	// The ground reader's memo of the layers it has read.
	{name: "memo_matches_the_name_alone", pkg: "./internal/core", run: "^(TestGroundOracle|TestReaderDeclinesOnlyOpenOrMalformed)$",
		edits: []edit{{"internal/parser/ground.go",
			"case l.key != key || l.name.n != a.n:",
			"case l.name.n != a.n:"}, {"internal/parser/ground.go",
			"case n <= 16 && len(l.close) == n+1 || strings.HasPrefix(src[off:], l.close):",
			"case n >= 0 || src == \"\":"}}},
	{name: "memo_matches_the_closing_bytes_alone", pkg: "./internal/core", run: "^(TestGroundOracle|TestReaderDeclinesOnlyOpenOrMalformed|TestQueryLoweringStable)$",
		edits: []edit{{"internal/parser/ground.go",
			"case l.key != key || l.name.n != a.n:\n\t\tcase l.name.off != a.off && r.name(int(l.name.off), l.name.n) != r.name(int(a.off), a.n):",
			"case l.key != key:"}}},
	{name: "memo_kept_across_the_second_pass", pkg: "./internal/core", run: "^TestReaderDeclinesOnlyOpenOrMalformed$",
		edits: []edit{{"internal/parser/ground.go", "r.layers = [LayerSlots]layer{}", ""}}},
	{name: "repeat_left_out_of_the_fingerprint", pkg: "./internal/core", run: "^(TestGroundOracle|TestReaderDeclinesOnlyOpenOrMalformed|TestQueryLoweringStable)$",
		edits: []edit{{"internal/core/shape.go", "\tw.b, w.run, w.from, w.count = b, run, from, count\n", "\tw.b, w.run, w.from, w.count = b, run, from, count\n\tw.hashed = len(b)\n"}}},

	// Runs: one shape token per run however spelled, a walk of a run past
	// its tail, and the fingerprint's carried bytes.
	{name: "numeral_not_coalesced_with_spelled_succ", pkg: "./internal/core", run: "^(TestGroundOracle|TestReaderDeclinesOnlyOpenOrMalformed)$",
		edits: []edit{{"internal/core/shape.go", "if w.count > 0 && w.run.args == 0 && w.run.n == 1+len(fn)", "if false && w.count > 0 && w.run.args == 0 && w.run.n == 1+len(fn)"}}},
	{name: "run_count_left_out_of_the_shape", pkg: "./internal/core", run: "^TestQueryLoweringStable$",
		edits: []edit{{"internal/core/shape.go", "func (w *shapeWriter) endRun() {\n\tif w.count > 1 {", "func (w *shapeWriter) endRun() {\n\tif w.count > 1 && false {"}}},
	{name: "run_reduced_before_its_tail", pkg: "./internal/specgraph", run: "^(TestRunWalkPastTheTail|TestRunWalkMatchesExpanded)$",
		edits: []edit{{"internal/specgraph/runs.go", "\t\t\tfor left := (n - i - 1) % lam; left > 0; left-- {", "\t\t\thare = q\n\t\t\tfor left := n % lam; left > 0; left-- {"}}},
	{name: "fold_drops_its_carried_bytes", pkg: "./internal/obs", run: "^FuzzFingerprintSplit$",
		edits: []edit{{"internal/obs/id.go", "h.h, h.tail = fpFold(h.h, h.tail), 0", "h.tail = 0"}}},
	{name: "answer_spec_hit_asks_for_done", pkg: "./internal/core", run: "^TestAnswerSpecHitAsksNoDone$",
		edits: []edit{{"internal/core/plan.go", "\t\tcase <-b.done:\n\t\tdefault:\n\t\t\tselect {", "\t\tcase <-ctx.Done():\n\t\t\treturn nil, ctx.Err()\n\t\tcase <-b.done:\n\t\t}\n\t\tif false {\n\t\t\tselect {"}}},

	// The parser's term builder, held to the recursive construction it replaced.
	{name: "builder_drops_plus_sugar", pkg: "./internal/parser", run: "^Test(Programs|Queries)MatchRecursiveReference$",
		edits: []edit{{"internal/parser/build.go", "succs(t.plus)", "succs(t.plus / 2)"}}},

	// Answers as paths, and their one renderer.
	{name: "stale_at_entries", pkg: "./internal/query", run: "^(TestEnumerateMatchesExhaustiveReference|TestEnumerateOrderAndCutoff)$",
		edits: []edit{{"internal/query/spec.go", "a.path, a.at = a.path[:0], a.at[:0]", "a.path = a.path[:0]"}}},
	{name: "path_skips_the_outermost_symbol", pkg: "./internal/query", run: "^TestEnumerateMatchesExhaustiveReference$",
		edits: []edit{{"internal/query/spec.go", "for k := depth - 1; k >= 0 && at[k] != int32(i); k-- {", "for k := depth - 2; k >= 0 && at[k] != int32(i); k-- {"}}},
	{name: "path_records_the_wrong_node", pkg: "./internal/query", run: "^TestEnumerateMatchesExhaustiveReference$",
		edits: []edit{{"internal/query/spec.go", "p[k], at[k] = alphabet[nodes[i].sym], int32(i)", "p[k], at[k] = alphabet[nodes[i].sym], int32(i+1)"}}},
	{name: "pruning_off_by_one", pkg: "./internal/query", run: "^(TestEnumerateMatchesExhaustiveReference|TestEnumerateOrderAndCutoff)$",
		edits: []edit{{"internal/query/spec.go", "below := maxDepth - depth - 1", "below := maxDepth - depth"}}},
	{name: "render_limit_off_by_one", pkg: "./internal/registry", run: "^TestAnswersEnumeration$",
		edits: []edit{{"internal/query/spec.go", "if limit > 0 && len(tuples) >= limit {", "if limit > 0 && len(tuples) > limit {"}}},
	{name: "dump_separator", pkg: "./internal/core", run: "^TestDumpStable$",
		edits: []edit{{"internal/query/spec.go", `rep = append(rep, ", "...)`, `rep = append(rep, ","...)`}}},
	{name: "succ_first_path_read_as_a_numeral", pkg: "./internal/term", run: "^TestCompactString$",
		edits: []edit{{"internal/term/term.go", "same == len(syms) && info.Name == SuccName", "info.Name == SuccName"}}},

	// A routed ask's buffers and who owns them.
	{name: "cache_keeps_the_view_on_a_miss", pkg: "./internal/server", run: "^TestRoutedAskKeepsNoView$",
		edits: []edit{{"internal/core/plan.go", "text := string(src)", "text := view"}}},
	{name: "query_kept_as_a_view_of_the_body", pkg: "./internal/server", run: "^TestRoutedAskKeepsNoView$",
		edits: []edit{{"internal/server/server.go", "import (\n", "import (\n\t\"unsafe\"\n"}, {"internal/server/server.go",
			"p.plan, p.query, p.err = e.PrepareBytes(ctx, text)",
			"p.plan, _, p.err = e.PrepareBytes(ctx, text)\n\tp.query = unsafe.String(unsafe.SliceData(text), len(text))"}}},
	{name: "router_releases_the_body_before_forwarding", pkg: "./internal/shard", run: "^TestRoutedBodyHeldUntilForwarded$",
		edits: []edit{{"internal/shard/router.go",
			"defer putBody(bp)\n\tif err != nil {\n\t\treturn err\n\t}\n\tstart := time.Now()\n\terr = rt.balance(",
			"putBody(bp)\n\tif err != nil {\n\t\treturn err\n\t}\n\tstart := time.Now()\n\terr = rt.balance("}}},
	{name: "record_reused_while_served", pkg: "./internal/api", run: "^TestHopRecordHeldWhileServed$",
		edits: []edit{{"internal/api/hop.go", "if _, err := br.Peek(1); err != nil", "if _, err := wire.ReadRecordInto(br, c.rec); err != nil"}}},
	{name: "encoder_back_from_the_context", pkg: "./internal/api", run: "^TestHopEncoderBackAfterWrite$",
		edits: []edit{{"internal/api/hop.go",
			"stop := context.AfterFunc(ctx, hc.cut)\n\trec, err := hc.roundTrip(frame)\n\tputHopEncoder(e)",
			"stop := context.AfterFunc(ctx, func() { putHopEncoder(e); hc.cut() })\n\trec, err := hc.roundTrip(frame)\n\t_ = e"}}},
	{name: "hop_body_wrapped_per_frame", pkg: "./internal/api", run: "^TestHopBodyAllocatesNothing$",
		edits: []edit{{"internal/api/hop.go",
			"c.body.reset(body)\n\t\treq.Body, req.ContentLength = &c.body, int64(len(body))",
			"req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))"}}},
	{name: "response_back_before_it_is_read", pkg: "./internal/api", run: "^TestHopResponseHeldUntilRelayed$",
		edits: []edit{{"internal/api/hop.go",
			"err = fn(&hc.resp)\n\tif keep {\n\t\tc.putHop(base, hc)\n\t}",
			"if keep {\n\t\tc.putHop(base, hc)\n\t}\n\terr = fn(&hc.resp)"}}},
	{name: "header_slab_slice_with_room", pkg: "./internal/api", run: "^TestHopHeaderSlicesHaveNoRoom$",
		edits: []edit{{"internal/api/hop.go", "hh.h[k] = hh.vals[i : i+1 : i+1]", "hh.h[k] = hh.vals[i : i+1]"}}},
	{name: "header_slot_slice_with_room", pkg: "./internal/api", run: "^TestSetHeaderSlotsHaveNoRoom$",
		edits: []edit{{"internal/api/handler.go", "h[key] = in.hdr[i : i+1 : i+1]", "h[key] = in.hdr[i : i+1]"}}},
	{name: "kept_trace_back_in_the_pool", pkg: "./internal/obs", run: "^TestKeptTraceKeepsItsSpans$",
		edits: []edit{{"internal/obs/recorder.go",
			"\tcase tr != nil:\n\t\ttr.release()\n\t}",
			"\t}\n\tif tr != nil {\n\t\ttr.release()\n\t}"}}},
	{name: "deadline_never_armed", pkg: "./internal/server", run: "^(TestStalledBodyIsCutOffAtTheDeadline|TestCompileMeetsItsDeadline)$",
		edits: []edit{{"internal/api/handler.go",
			"ctx, cancel := context.WithDeadline(c.parent, c.deadline)",
			"ctx, cancel := context.WithCancel(c.parent)"}}},

	// An answer specification's build that its leader's deadline kills.
	{name: "follower_inherits_the_leaders_failure", pkg: "./internal/core", run: "^TestAnswerSpecFollowerOutlivesLeader$",
		edits: []edit{{"internal/core/plan.go", "if !ownFault(b.err) {", "if true {"}}},

	// A test seam in shipped code: a function variable a test swaps.
	{name: "a_test_seam_comes_back", pkg: ".", run: "^TestNoTestSeams$",
		edits: []edit{{"internal/core/plan.go",
			"// text returns the node cached for src, whose key is key, or nil.",
			"var sameText = func(a, b string) bool { return a == b }\n\n// text returns the node cached for src, whose key is key, or nil."}, {"internal/core/plan.go",
			"if n.src == src {",
			"if sameText(n.src, src) {"}, {"internal/core/text_key_test.go",
			"for _, f := range collisionFailures(t) {",
			"sameText = func(a, b string) bool { return a == b }\n\tfor _, f := range collisionFailures(t) {"}}},
}
