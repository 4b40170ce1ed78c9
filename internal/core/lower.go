package core

import (
	"slices"
	"strings"

	"funcdb/internal/facts"
	"funcdb/internal/parser"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
)

// readGround lowers src as parser.ReadGround reads it, or returns nil when
// the reader declines the text (an open query, or a malformed one). The plan
// it returns is its text, shape, fingerprint and verdict: every step is
// walked while the sink still holds it, and no plan keeps the steps.
func (s *Snapshot) readGround(src string) *Plan {
	g := s.lowering()
	var p *Plan
	if g.read(src) {
		shape, fingerprint := g.shape.Finish()
		p = &Plan{snap: s, src: src, shape: shape, fingerprint: fingerprint,
			ground: true, verdict: s.groundVerdict(g.steps)}
	}
	s.putLowering(g)
	return p
}

// groundVerdict decides the steps of a ground text by the graph method, the
// paper's Link rules run over each atom's symbol string: the
// representatives' table walked from 0 — as the string was lowered, a run
// at a time (a run costs at most a few laps of the cycle its symbol's row
// ends in) — the atom looked up in the state reached.
func (s *Snapshot) groundVerdict(steps []groundStep) bool {
	for i := range steps {
		st := &steps[i]
		switch st.kind {
		case stepFalse:
			return false
		case stepWalk:
			if !s.w.StateContains(s.spec.State[st.state], st.atom) {
				return false
			}
		}
	}
	return true
}

// lowering takes a sink from the snapshot's pool.
func (s *Snapshot) lowering() *groundLowering {
	if g, _ := s.lowerPool.Get().(*groundLowering); g != nil {
		return g
	}
	return &groundLowering{s: s, lw: appLowering{table: s.spec.Table, tab: s.tab}}
}

// putLowering empties g and hands it back to the pool.
func (s *Snapshot) putLowering(g *groundLowering) {
	g.release()
	s.lowerPool.Put(g)
}

// read lowers src into the sink, which holds its steps until it is
// released; false: the reader declined the text.
func (g *groundLowering) read(src string) bool {
	g.data, g.lw.name = g.dbuf[:0], g.nbuf[:0]
	// A shape is about as long as its text less the spaces, or shorter by
	// its runs, but for numerals and +n sugar, which Succ makes room for.
	g.est = len(src) - strings.Count(src, " ") + shapeSlack
	g.room = g.est
	return parser.ReadGround(g.s.tab, src, g)
}

// groundStep is one compiled ground atom.
type groundStep struct {
	kind  stepKind
	runs  []int32      // stepWalk: innermost-first symbol indices of the alphabet, a run string (specgraph.AppendRun)
	state int32        // stepWalk: the state the run string leads to from the root
	atom  facts.AtomID // stepWalk: frozen atom to look for
}

// stepKind discriminates the compiled forms of one ground atom.
type stepKind uint8

const (
	// stepTrue: the atom is a data fact present in the frozen global set —
	// a constant, resolved at compile time.
	stepTrue stepKind = iota
	// stepFalse: the atom can never hold in this snapshot (novel constant,
	// tuple absent from the frozen world) — also a compile-time constant.
	stepFalse
	// stepWalk: walk the representatives' table over the run string and
	// look for the atom in the full state reached — an original predicate's
	// atom and a normalization helper's alike.
	stepWalk
)

// groundLowering is the parser.GroundSink of a plan miss: it compiles each
// atom to its step — a run of applications straight to a run of its symbol
// index — and writes the query's canonical shape and fingerprint, all while
// the text is read. Symbols are looked up in the snapshot's own table and
// atoms in its world, so nothing is interned and no scratch overlay is
// needed: under range restriction the least fixpoint holds no atom over a
// term with a symbol outside the alphabet, nor one with a predicate or tuple
// the snapshot has never seen, and each of those is a compile-time false,
// whichever method decides the text.
//
// The sink lives on the heap (the reader calls it through an interface), so
// per run it stores into buffers and indices and never re-stores a slice,
// which would cost a write barrier while the collector runs. The snapshot
// pools its sinks: the steps and their run strings are scratch, read before
// the sink goes back, and a released one holds nothing a plan retains.
type groundLowering struct {
	s     *Snapshot
	lw    appLowering
	shape shapeWriter
	est   int // the shape's length, as estimated from the text
	room  int // what the next Atom makes room for: est before the first

	// The steps of the atoms read, and their run strings one after another.
	steps []groundStep
	runs  []int32

	// The applications the reader filed, by entry: where the shape spells
	// each, as CloseApp did, and its symbol index (-1: outside the
	// alphabet); and the reader's buffer of the layers it meets again, by
	// entry.
	spells  [parser.LayerSlots]appSpelling
	syms    [parser.LayerSlots]int32
	repeats [64]uint8

	// The atom being read.
	functional bool
	open       bool // an application whose symbol is still to be found
	entry      int  // the entry it is filed under, or -1
	out        bool // an application outside the alphabet, or a constant the table lacks
	rw         specgraph.RunWriter
	depth      int64             // its applications, counted whatever their symbols
	data       []symbols.ConstID // its data arguments

	deep bool // a term counted more than parser.MaxTermDepth applications

	dbuf [4]symbols.ConstID
	nbuf [32]byte
}

// The scratch a pooled sink keeps, in steps and in words of run strings: a
// read past either drops it, as the module's other pools drop a buffer
// past 64 KiB.
const (
	maxKeptSteps = 1 << 10
	maxKeptRuns  = 16 << 10
)

// release returns the sink to its state before a read, so that it can go
// back to the pool holding nothing the read's plan retains (its shape's
// buffer), no spelling of an earlier text, and none of its steps.
func (g *groundLowering) release() {
	memo := g.lw.memo
	if memo != nil {
		*memo = [appMemoSize]appEntry{}
	}
	clear(g.steps[:cap(g.steps)])
	steps, runs := g.steps[:0], g.runs[:0]
	if cap(steps) > maxKeptSteps || cap(runs) > maxKeptRuns {
		steps, runs = nil, nil
	}
	*g = groundLowering{s: g.s, lw: appLowering{table: g.lw.table, tab: g.lw.tab, memo: memo}, steps: steps, runs: runs}
}

func (g *groundLowering) Reset() {
	g.shape = shapeWriter{}
	g.deep = false
	g.spells = [parser.LayerSlots]appSpelling{}
	g.room = g.est
	g.steps, g.runs = g.steps[:0], g.runs[:0]
}

// shapeSlack is room for what a shape has and a text does not: an atom's
// "/kf" and its fingerprint. succRoom is what a run of succ adds to a shape
// at most: ".succ*" and its count.
const (
	shapeSlack = 32
	succRoom   = 2 + len(term.SuccName) + 19
)

func (g *groundLowering) Atom(name string, arity int, functional bool, apps int) {
	// Room for the text's shape before the first atom.
	if g.room > 0 {
		g.shape.Grow(g.room)
		g.room = 0
	}
	g.shape.Atom(name, arity, functional)
	g.functional, g.out, g.data = functional, false, g.data[:0]
	if functional {
		// A layer in parentheses takes a word of the run string at most,
		// and a numeral's run three; +n sugar between layers, rarer, grows
		// it.
		g.runs = slices.Grow(g.runs, apps+3)
		g.shape.Zero()
	}
	g.rw.Reset(g.lw.table, g.runs)
	g.depth = 0
}

// endApp finds the symbol of the application read last, if it is still to
// be found: by its spelling in the shape, which names its function symbol
// and its constants. A filed application's entry records both.
func (g *groundLowering) endApp() {
	if !g.open {
		return
	}
	g.open = false
	sp := g.shape.CloseApp()
	if g.out && g.entry < 0 {
		return
	}
	i, _ := g.lw.index(g.shape.view(sp.off, sp.n))
	if g.entry >= 0 {
		g.spells[g.entry], g.syms[g.entry] = sp, i
	}
	g.app(i, 1)
}

// app appends n applications of the symbol index i to the atom's run
// string; -1 puts the atom outside the alphabet.
func (g *groundLowering) app(i int32, n int64) {
	switch {
	case g.out:
	case i < 0:
		g.out = true
	default:
		g.rw.Add(i, n)
	}
}

func (g *groundLowering) Succ(fn symbols.FuncID, n int64) {
	g.endApp()
	g.depth += n
	g.shape.Grow(succRoom)
	g.shape.Apps(term.SuccName, n)
	if g.out {
		return
	}
	i, ok := g.lw.table.SymIndex(fn)
	if !ok {
		i = -1
	}
	g.app(i, n)
}

func (g *groundLowering) App(name string, entry int) {
	g.endApp()
	g.depth++
	g.shape.App(name)
	g.open, g.entry = true, entry
}

func (g *groundLowering) Layers() []uint8 { return g.repeats[:] }

// Repeat writes each filed application the reader met again: per layer
// its spelling counted into the shape's last run or copied from the shape
// itself, and its symbol counted into the last run of the run string or
// stored after it. No lookup.
func (g *groundLowering) Repeat(n int) {
	if g.open {
		g.endApp()
	}
	g.depth += int64(n)
	entries := g.repeats[:n]
	g.shape.Repeats(&g.spells, entries)
	if !g.out && !g.rw.AddEach(g.syms[:], entries) {
		g.out = true
	}
}

func (g *groundLowering) AppArg(name string) { g.shape.Const(name) }

func (g *groundLowering) EndTerm() {
	g.endApp()
	g.deep = g.deep || g.depth > parser.MaxTermDepth
	g.shape.EndTerm()
}

func (g *groundLowering) Arg(name string, id symbols.ConstID) {
	g.shape.Const(name)
	g.out = g.out || id == symbols.NoConst
	g.data = append(g.data, id)
}

func (g *groundLowering) End(pred symbols.PredID) {
	g.shape.End()
	g.steps = append(g.steps, g.step(pred))
}

// step compiles the atom just read.
func (g *groundLowering) step(pred symbols.PredID) groundStep {
	s := g.s
	if pred == symbols.NoPred || g.out {
		return groundStep{kind: stepFalse}
	}
	if !g.functional {
		// Data atom: the frozen global set is immutable, so the verdict is a
		// compile-time constant.
		if s.spec.HasData(s.w, pred, g.data) {
			return groundStep{kind: stepTrue}
		}
		return groundStep{kind: stepFalse}
	}
	atom, ok := s.w.Lookup(pred, g.data)
	if !ok {
		return groundStep{kind: stepFalse}
	}
	from := len(g.runs) // the writer appends to runs, which it was given as it is now
	g.runs = g.rw.Runs()
	return groundStep{kind: stepWalk, runs: g.runs[from:len(g.runs):len(g.runs)], state: g.rw.State(), atom: atom}
}

// appMemoSize is the number of slots of a read's application memo: a deep
// term repeats a handful of applications for hundreds of layers, and a miss
// costs a symbol-table lookup by name.
const appMemoSize = 64

// appLowering resolves the applications of one read's ground terms to
// symbol indices, by their spelling in the shape: `.f` is the pure symbol f,
// and `.g[a,b` the pure symbol g'a'b that rewrite.EliminateMixed derived
// for the mixed application g(·, a, b) when the program was compiled —
// found by name once per distinct spelling and read. A symbol the table
// lacks, or a derived name the program never produced, is not interned: it
// is outside the alphabet either way.
type appLowering struct {
	table *specgraph.Table // the indices are into its alphabet
	tab   *symbols.Table
	name  []byte
	// memo is made on the first application a sink reads and kept with
	// it, emptied by each release: a read of numerals alone needs none.
	memo *[appMemoSize]appEntry
}

type appEntry struct {
	app string // as CloseApp spells it; "" in an empty slot
	idx int32  // -1: outside the alphabet
}

// index returns the alphabet index of the symbol the application spelled app
// stands for; ok is false when the alphabet does not have it.
func (lw *appLowering) index(app string) (int32, bool) {
	// Up to four slots from the spelling's own, so two applications a term
	// alternates between do not evict each other.
	home := int(appHash(app) >> 58)
	if lw.memo == nil {
		lw.memo = new([appMemoSize]appEntry)
	}
	e := &lw.memo[home]
	for k := 0; k < 4; k++ {
		c := &lw.memo[(home+k)&(appMemoSize-1)]
		if c.app == "" {
			e = c
			break
		}
		if c.app == app {
			return c.idx, c.idx >= 0
		}
	}
	*e = appEntry{app: app, idx: -1}
	// The symbol's name is the spelling less its leading '.', with a quote
	// for every '[' or ','. The lookup does not retain its key, so
	// string(name) stays off the heap.
	lw.name = lw.name[:0]
	for i := 1; i < len(app); i++ {
		c := app[i]
		if c == '[' || c == ',' {
			c = '\''
		}
		lw.name = append(lw.name, c)
	}
	if fn, ok := lw.tab.LookupFunc(string(lw.name), 0); ok {
		if i, ok := lw.table.SymIndex(fn); ok {
			e.idx = i
		}
	}
	return e.idx, e.idx >= 0
}

// appHash hashes a spelling by its length, its first letter and its last
// four bytes, which hold the constants that tell apart the applications one
// term repeats.
func appHash(app string) uint64 {
	n := len(app)
	w := uint64(n)<<8 | uint64(app[1])
	if n >= 6 {
		w |= uint64(app[n-4])<<16 | uint64(app[n-3])<<24 | uint64(app[n-2])<<32 | uint64(app[n-1])<<40
	}
	return w * 0x9e3779b97f4a7c15
}
