package specgraph

// A run string is a symbol string with its runs counted: innermost first, a
// word s >= 0 is one application of the symbol index s, and a word ^s < 0
// opens a run of the symbol index s whose count follows in two words, low
// then high. A string of plain indices is a run string with no runs. AppendRun
// writes a run of fewer than three applications as plain indices, so that a
// string costs no more words than its plain spelling, and the count of any
// run is at most MaxRunCount.
//
// For any alphabet, one symbol's transitions are a function on the states,
// so a run f^n from a state enters a cycle within NumStates steps: a walk
// follows the row for f until the cycle is found and reduces what is left of
// n modulo its period. A run costs O(min(n, NumStates)) steps, however large
// its count (Theorem 4.3's tail and period, for the one symbol of a temporal
// program, read off the root).

// MaxRunCount bounds the count of one run, and of a run string's
// applications summed.
const MaxRunCount = 1 << 62

// AppendRun appends n >= 0 applications of the symbol index s to the run
// string runs. It does not merge them with a run of s that runs ends in: the
// writer of a string counts each run whole.
func AppendRun(runs []int32, s int32, n int64) []int32 {
	if n < 3 {
		for ; n > 0; n-- {
			runs = append(runs, s)
		}
		return runs
	}
	return append(runs, ^s, int32(uint32(n)), int32(uint64(n)>>32))
}

// RunWriter writes a run string a run at a time, innermost first, and walks
// a table over it as it is written: the state the string leads to from the
// root is known once its last run is, with no second pass over the string.
type RunWriter struct {
	runs  []int32 // the runs but the last
	sym   int32   // the last run's symbol
	count int64   // the last run's count; 0: none

	t     *Table
	trans []int32 // t's successors, k to a state
	k     int
	state int32 // where the applications written lead from the root
}

// Reset empties the writer, which writes into buf from now on and walks t.
func (w *RunWriter) Reset(t *Table, buf []int32) {
	*w = RunWriter{runs: buf[:0], t: t, trans: t.trans, k: len(t.Alphabet)}
}

// Add appends n applications of the symbol index s: counted into the run the
// string ends in, if it is one of s. A run is walked as WalkRuns walks one.
func (w *RunWriter) Add(s int32, n int64) {
	if n == 1 {
		w.state = w.trans[int(w.state)*w.k+int(s)]
	} else {
		w.state = w.t.stepRun(w.state, s, n)
	}
	if w.count > 0 && s == w.sym {
		w.count += n
		return
	}
	w.runs = AppendRun(w.runs, w.sym, w.count)
	w.sym, w.count = s, n
}

// AddEach appends, for each e of entries in turn, one application of the
// symbol index syms[e], as Add does, but for an index below zero, a symbol
// outside the alphabet: there it stops, and reports false. A deep term's
// layers reach the writer so, and the loop keeps the writer in locals.
func (w *RunWriter) AddEach(syms []int32, entries []uint8) bool {
	runs, sym, count, state, trans, k := w.runs, w.sym, w.count, w.state, w.trans, w.k
	ok := true
	for _, e := range entries {
		s := syms[e]
		if s < 0 {
			ok = false
			break
		}
		state = trans[int(state)*k+int(s)]
		switch {
		case count > 0 && s == sym:
			count++
			continue
		case count == 1: // a layer of a term's own, the common case
			runs = append(runs, sym)
		default:
			runs = AppendRun(runs, sym, count)
		}
		sym, count = s, 1
	}
	w.runs, w.sym, w.count, w.state = runs, sym, count, state
	return ok
}

// State returns the state the applications written lead to from the root.
func (w *RunWriter) State() int32 { return w.state }

// Runs returns the run string written, in the writer's buffer.
func (w *RunWriter) Runs() []int32 {
	w.runs, w.count = AppendRun(w.runs, w.sym, w.count), 0
	return w.runs
}

// EachRun calls fn for each run of runs, a plain index as a run of one.
func EachRun(runs []int32, fn func(s int32, n int64)) {
	for i := 0; i < len(runs); i++ {
		s, n := runs[i], int64(1)
		if s < 0 {
			s, n = ^s, int64(uint32(runs[i+1]))|int64(runs[i+2])<<32
			i += 2
		}
		fn(s, n)
	}
}

// WalkRuns runs the DFA from the root over a run string of symbol indices,
// each one SymIndex gave, and returns the state reached.
func (t *Table) WalkRuns(runs []int32) int32 {
	cur, k := Root, len(t.Alphabet)
	for i := 0; i < len(runs); i++ {
		s := runs[i]
		if s >= 0 {
			cur = t.trans[int(cur)*k+int(s)]
			continue
		}
		n := int64(uint32(runs[i+1])) | int64(runs[i+2])<<32
		cur = t.stepRun(cur, ^s, n)
		i += 2
	}
	return cur
}

// stepRun returns the state n applications of the symbol index s lead to
// from state q. It walks with Brent's cycle finding, which keeps two states:
// the hare takes one step per round, and the tortoise waits at the hare's
// place of every power of two, so the hare meets it within a few laps of
// the cycle the orbit ends in. At the meeting the hare is on the cycle and
// lam is its period; only then, past the tail, is the rest of n reduced
// modulo it.
func (t *Table) stepRun(q, s int32, n int64) int32 {
	k := len(t.Alphabet)
	next := func(q int32) int32 { return t.trans[int(q)*k+int(s)] }
	tortoise, hare := q, q
	power, lam := int64(1), int64(0)
	for i := int64(0); i < n; i++ {
		hare = next(hare)
		lam++
		if hare == tortoise {
			// The hare has taken i+1 steps and stands on a cycle of period
			// lam: take what is left of n modulo it.
			for left := (n - i - 1) % lam; left > 0; left-- {
				hare = next(hare)
			}
			return hare
		}
		if lam == power {
			tortoise, power, lam = hare, 2*power, 0
		}
	}
	return hare
}
