package obs

import "sync/atomic"

// EngineStats is the process-wide cumulative engine counter set: how much
// work the fixpoint engine, Algorithm Q, and the congruence solver have done
// since the process started. All methods are nil-safe so a nil sink is a
// true no-op.
type EngineStats struct {
	termsInterned  atomic.Int64
	factsDerived   atomic.Int64
	fixpointRounds atomic.Int64
	ruleFirings    atomic.Int64
	equations      atomic.Int64
	qRounds        atomic.Int64
	maxDepth       atomic.Int64
	planHits       atomic.Int64
	planMisses     atomic.Int64
	specHits       atomic.Int64
	specBuilds     atomic.Int64
	arenaReuses    atomic.Int64
}

// AddTerms records newly interned terms.
func (s *EngineStats) AddTerms(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.termsInterned.Add(n)
}

// AddFacts records newly derived facts.
func (s *EngineStats) AddFacts(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.factsDerived.Add(n)
}

// AddRounds records completed fixpoint iterations.
func (s *EngineStats) AddRounds(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.fixpointRounds.Add(n)
}

// AddFirings records rule firings.
func (s *EngineStats) AddFirings(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.ruleFirings.Add(n)
}

// AddEquations records equations asserted into a congruence closure Cl(R).
func (s *EngineStats) AddEquations(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.equations.Add(n)
}

// AddQRounds records Algorithm Q exploration steps (terms examined by the
// Potential/Active breadth-first search).
func (s *EngineStats) AddQRounds(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.qRounds.Add(n)
}

// AddPlanHits records queries served by an already-compiled plan.
func (s *EngineStats) AddPlanHits(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.planHits.Add(n)
}

// AddPlanMisses records plan-cache misses (queries that had to compile).
func (s *EngineStats) AddPlanMisses(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.planMisses.Add(n)
}

// AddAnswerSpecHits records open-query executions served by the answer
// specification already fixed on their plan.
func (s *EngineStats) AddAnswerSpecHits(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.specHits.Add(n)
}

// AddAnswerSpecBuilds records answer specifications computed (Theorem 5.1
// evaluation, or the enlarged program's compile), killed builds included.
func (s *EngineStats) AddAnswerSpecBuilds(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.specBuilds.Add(n)
}

// AddArenaReuses records query evaluations that reused a pooled scratch
// arena instead of allocating fresh overlays.
func (s *EngineStats) AddArenaReuses(n int64) {
	if s == nil || n == 0 {
		return
	}
	s.arenaReuses.Add(n)
}

// ObserveDepth raises the high-water derivation depth.
func (s *EngineStats) ObserveDepth(d int64) {
	if s == nil {
		return
	}
	for {
		old := s.maxDepth.Load()
		if d <= old || s.maxDepth.CompareAndSwap(old, d) {
			return
		}
	}
}

// Counters returns the cumulative counters (everything monotonically
// increasing) keyed by metric suffix.
func (s *EngineStats) Counters() map[string]int64 {
	if s == nil {
		return nil
	}
	return map[string]int64{
		"terms_interned_total":     s.termsInterned.Load(),
		"facts_derived_total":      s.factsDerived.Load(),
		"fixpoint_rounds_total":    s.fixpointRounds.Load(),
		"rule_firings_total":       s.ruleFirings.Load(),
		"equations_total":          s.equations.Load(),
		"algoq_steps_total":        s.qRounds.Load(),
		"plan_cache_hits_total":    s.planHits.Load(),
		"plan_cache_misses_total":  s.planMisses.Load(),
		"answer_spec_hits_total":   s.specHits.Load(),
		"answer_spec_builds_total": s.specBuilds.Load(),
		"arena_reuses_total":       s.arenaReuses.Load(),
	}
}

// MaxDepth returns the high-water derivation depth seen by any query.
func (s *EngineStats) MaxDepth() int64 {
	if s == nil {
		return 0
	}
	return s.maxDepth.Load()
}

// engineSink is the process-global sink. It starts out live; benchmarks
// swap in nil to measure the no-op floor.
var engineSink atomic.Pointer[EngineStats]

func init() {
	engineSink.Store(&EngineStats{})
}

// EngineSink returns the current global sink. May return nil (the no-op
// sink); every EngineStats method tolerates a nil receiver.
func EngineSink() *EngineStats {
	return engineSink.Load()
}

// SetEngineSink replaces the global sink and returns the previous one.
// Pass nil to disable cumulative engine counters entirely.
func SetEngineSink(s *EngineStats) *EngineStats {
	return engineSink.Swap(s)
}
