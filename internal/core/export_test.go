package core

import (
	"slices"

	"funcdb/internal/ast"
	"funcdb/internal/obs"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
)

// treePlan is the tree lowering a ground plan miss made before ground text
// was lowered as it is read, kept as the reference the reader is compared
// with: the text parsed into an AST over a scratch overlay, its shape
// written by QueryShape and hashed by obs.Fingerprint, and each
// atom compiled from its FTerm, a mixed application through a memo keyed on
// its symbols' ids, and the plan's verdict walked from the steps, as
// readGround does. It returns the parse error of a malformed text and a nil
// plan for an open query. The plan is not cached.
func (s *Snapshot) treePlan(src string) (*Plan, error) {
	ec := s.getEval()
	defer s.putEval(ec)
	q, err := parser.ParseQueryTab(ec.tab, src)
	if err != nil {
		return nil, err
	}
	if !groundQuery(q) {
		return nil, nil
	}
	shape := QueryShape(q, ec.tab)
	p := &Plan{snap: s, src: src, shape: shape, fingerprint: obs.Fingerprint(shape), ground: true}
	lw := treeLowering{table: s.spec.Table, tab: ec.tab}
	p.steps = make([]groundStep, len(q.Atoms))
	for i := range q.Atoms {
		p.steps[i] = s.lower(ec, &lw, &q.Atoms[i])
	}
	p.verdict = s.groundVerdict(p.steps)
	return p, nil
}

// lower compiles one ground atom of the tree. Under range restriction the
// least fixpoint holds no atom over a term with a symbol outside the
// alphabet, nor one with a predicate or tuple the snapshot has never seen,
// so each of those is a compile-time false.
func (s *Snapshot) lower(ec *evalCtx, lw *treeLowering, a *ast.Atom) groundStep {
	args := constArgs(a)
	if a.FT == nil {
		if s.spec.HasData(ec.w, a.Pred, args) {
			return groundStep{kind: stepTrue}
		}
		return groundStep{kind: stepFalse}
	}
	var runs []int32
	for i := 0; i < len(a.FT.Apps); {
		si, ok := lw.index(a.FT.Apps[i])
		if !ok {
			return groundStep{kind: stepFalse}
		}
		n := 1
		for i+n < len(a.FT.Apps) && sameApp(a.FT.Apps[i+n], a.FT.Apps[i]) {
			n++
		}
		runs = specgraph.AppendRun(runs, si, int64(n))
		i += n
	}
	atom := ec.w.Atom(a.Pred, ec.w.Tuple(args))
	if int(atom) >= s.w.NumAtoms() {
		return groundStep{kind: stepFalse}
	}
	return groundStep{kind: stepWalk, runs: runs, state: s.spec.WalkRuns(runs), atom: atom}
}

// mixedMemoSize is the number of slots of the tree lowering's
// mixed-application memo.
const mixedMemoSize = 64

// treeLowering resolves the applications of one tree's ground terms to
// symbol indices: a pure symbol by SymIndex, a mixed application g(·, a, b)
// by the derived symbol g'a'b, found by name once per distinct application
// and compile.
type treeLowering struct {
	table *specgraph.Table // the indices are into its alphabet
	tab   *symbols.Table
	name  []byte
	memo  [mixedMemoSize]mixedEntry
}

type mixedEntry struct {
	fn   symbols.FuncID
	args []ast.DTerm
	idx  int32 // -1: the derived symbol is not in the alphabet
	used bool
}

// mixedKey is what tells two mixed applications apart: the function symbol
// and its constants. TestGroundOracleCatches plants a memo keyed on the
// functor alone through it.
var mixedKey = func(app ast.FApp) (symbols.FuncID, []ast.DTerm) { return app.Fn, app.Args }

// index returns the alphabet index of an application's symbol; ok is false
// when the alphabet does not have it.
func (lw *treeLowering) index(app ast.FApp) (int32, bool) {
	if len(app.Args) == 0 {
		return lw.table.SymIndex(app.Fn)
	}
	fn, args := mixedKey(app)
	h := (uint64(fn) + 1) * 0x9e3779b97f4a7c15
	for _, d := range args {
		h = (h + uint64(uint32(d.Const)) + 1) * 0x9e3779b97f4a7c15
	}
	home := int(h >> 58)
	e := &lw.memo[home]
	for k := 0; k < 4; k++ {
		c := &lw.memo[(home+k)%mixedMemoSize]
		if !c.used {
			e = c
			break
		}
		if c.fn == fn && slices.Equal(c.args, args) {
			return c.idx, c.idx >= 0
		}
	}
	*e = mixedEntry{fn: fn, args: args, idx: -1, used: true}
	lw.name = rewrite.PureName(lw.name[:0], lw.tab, app)
	if d, ok := lw.tab.LookupFunc(string(lw.name), 0); ok {
		if i, ok := lw.table.SymIndex(d); ok {
			e.idx = i
		}
	}
	return e.idx, e.idx >= 0
}
