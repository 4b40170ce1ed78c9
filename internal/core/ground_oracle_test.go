package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"funcdb/internal/ast"
	"funcdb/internal/facts"
	"funcdb/internal/fixpoint"
	"funcdb/internal/parser"
	"funcdb/internal/rewrite"
	"funcdb/internal/specgraph"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
	"funcdb/internal/topdown"
)

// The ground-ask oracle. A seeded generator writes ground yes/no queries
// over every program of stablePrograms (the acceptance corpus and the seven
// datagen families), and every backend that can decide a ground atom is
// asked each one:
//
//   - the plan, as served: Snapshot.Prepare then Plan.Ask;
//   - the plan under MethodEquational (congruence closure over R);
//   - the specification walked the old way: the query's mixed applications
//     eliminated by rewrite.EliminateMixed on a one-fact program, the
//     symbol string run over the representatives' table;
//   - the tabled top-down prover, where its run is complete;
//   - the depth-bounded least fixpoint, for terms of depth at most 4.
//
// The generator types its atoms the way the paper's programs are typed —
// one functional position per predicate, holding a term of the functional
// sort built from the successor alphabet over 0, and constants everywhere
// else — the functional-position discipline written as a typing judgement
// ("Functions as types", PAPERS.md). Then it breaks the judgement on
// purpose: a symbol the alphabet does not have (a foreign function symbol,
// succ in a program without it, a mixed application over a constant the
// program never used), a novel constant in a data position, a constant in
// the functional position, an application or +n in a data position,
// truncated texts and stray bytes.
//
// Laws: every backend gives one answer (the same verdict, or the same error
// text) for a text; a respelling — other whitespace, newlines and %
// comments between the tokens, a numeral or +n written as a sum — has the
// canonical spelling's Shape() and Fingerprint() and verdict, and an error
// that names a position names the same token in every spelling. A broken
// law prints the program, the case's seed and a shrunk one-line repro.

// oracleCases is the default seed budget: cases per program.
const oracleCases = 250

// topdownMaxDepth and topdownMaxTables bound the top-down prover's runs: it
// demands tables to the term's depth plus a slack, which a wide alphabet
// makes thousands; a run past either bound is not applicable, and the other
// backends cover it.
const (
	topdownMaxDepth  = 16
	topdownMaxTables = 4000
)

// fixpointMaxDepth is the deepest term the fixpoint backend answers for.
const fixpointMaxDepth = 4

// Oracle decides a ground yes/no query text.
type Oracle interface {
	Ask(text string) (bool, error)
}

// errNotApplicable is a backend's answer to a query outside its reach.
var errNotApplicable = errors.New("oracle: not applicable")

// oracleSym is how the generator spells one symbol: a pure symbol f as
// f(·), succ as a numeral or +n, a derived g'a'b as the mixed application
// g(·, a, b) it stands for.
type oracleSym struct {
	name string
	args []string
}

type oraclePred struct {
	id    symbols.PredID
	name  string
	arity int // data arguments
	fn    bool
}

// oracleProgram is one program under the oracle: the database under test,
// a second database over the same source for the reference backends (their
// lowering interns what the query brings into the live stores), and what
// the generator reads off the compiled specification.
type oracleProgram struct {
	name    string
	db      *Database
	snap    *Snapshot
	ref     *Database
	sp      *specgraph.Spec // ref's
	syms    []oracleSym     // by symbol index of the alphabet
	hasSucc bool
	preds   []oraclePred
	consts  []string
	novel   []string    // constants the program does not know
	foreign []string    // pure function symbols the program does not know
	mixed   []oracleSym // the program's mixed function symbols; len(args) is the data arity

	fix  *fixpoint.Result // nil: no fixpoint backend for this program
	fixU *term.Universe
}

func newOracleProgram(t testing.TB, name, src string) *oracleProgram {
	t.Helper()
	db, err := Open(src, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, err := Open(src, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sp, err := ref.Graph()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	op := &oracleProgram{name: name, db: db, snap: snap, ref: ref, sp: sp}
	tab := ref.Tab()
	for f := 0; f < tab.NumFuncs(); f++ {
		if info := tab.FuncInfo(symbols.FuncID(f)); info.DataArity > 0 {
			op.mixed = append(op.mixed, oracleSym{name: info.Name, args: make([]string, info.DataArity)})
		}
	}
	for _, fn := range sp.Alphabet {
		info := tab.FuncInfo(fn)
		s := oracleSym{name: info.Name}
		if info.Derived {
			s = op.unmix(t, info.Name)
		}
		op.hasSucc = op.hasSucc || info.Name == term.SuccName
		op.syms = append(op.syms, s)
	}
	seen := make(map[symbols.PredID]bool)
	addPred := func(a *ast.Atom) {
		if seen[a.Pred] {
			return
		}
		seen[a.Pred] = true
		info := tab.PredInfo(a.Pred)
		op.preds = append(op.preds, oraclePred{id: a.Pred, name: info.Name, arity: info.Arity, fn: info.Functional})
	}
	ref.Source.Atoms(addPred)
	ref.Prep.Program.Atoms(addPred) // the helper predicates of normalization
	sort.Slice(op.preds, func(i, j int) bool { return op.preds[i].id < op.preds[j].id })
	for c := 0; c < tab.NumConsts(); c++ {
		op.consts = append(op.consts, tab.ConstName(symbols.ConstID(c)))
	}
	for _, c := range []string{"zq0", "zq1", "nobody"} {
		if _, ok := tab.LookupConst(c); !ok {
			op.novel = append(op.novel, c)
		}
	}
	for _, f := range []string{"foo", "bar", "zork"} {
		if _, ok := tab.LookupFunc(f, 0); !ok {
			op.foreign = append(op.foreign, f)
		}
	}
	// The fixpoint is evaluated as deep as a fact budget allows: downward
	// rules carry facts from deeper terms to shallow ones, which a bound
	// just past the query's depth would miss.
	for d := 10; d >= fixpointMaxDepth; d-- {
		u, w := term.NewUniverse(), facts.NewWorld()
		res, err := fixpoint.Eval(ref.Prep.Program, u, w, fixpoint.Options{MaxDepth: d, Seminaive: true, MaxFacts: 40000})
		if err == nil {
			op.fix, op.fixU = res, u
			break
		}
	}
	return op
}

// unmix recovers the mixed application g(·, a, b) a derived symbol g'a'b
// stands for.
func (op *oracleProgram) unmix(t testing.TB, name string) oracleSym {
	for _, m := range op.mixed {
		rest, ok := strings.CutPrefix(name, m.name+"'")
		if !ok {
			continue
		}
		if args := strings.Split(rest, "'"); len(args) == len(m.args) {
			return oracleSym{name: m.name, args: args}
		}
	}
	t.Fatalf("%s: cannot spell derived symbol %s", op.name, name)
	return oracleSym{}
}

// gAtom is one generated atom.
type gAtom struct {
	pred   oraclePred
	layers []oracleSym // applications, innermost first; functional predicates only
	args   []string
	// Broken on purpose: the functional position holds a constant, or data
	// argument badArg is written as badToks.
	constTerm string
	badArg    int
	badToks   []string
}

// gQuery is one generated query.
type gQuery struct {
	atoms []gAtom
	// cut > 0 keeps that many tokens after "?-"; stray > 0 replaces a token
	// by strayTok. Either makes the text malformed.
	cut, stray int
	strayTok   string
	malformed  bool
}

func (q *gQuery) clone() gQuery {
	c := *q
	c.atoms = append([]gAtom(nil), q.atoms...)
	for i := range c.atoms {
		c.atoms[i].layers = append([]oracleSym(nil), q.atoms[i].layers...)
	}
	return c
}

// oracleDepth draws a term depth in 0–1024, most of them shallow enough for
// every backend.
func oracleDepth(r *rand.Rand) int {
	switch x := r.Intn(100); {
	case x < 55:
		return r.Intn(fixpointMaxDepth + 1)
	case x < 85:
		return fixpointMaxDepth + 1 + r.Intn(28)
	case x < 97:
		return 33 + r.Intn(224)
	}
	return 257 + r.Intn(768)
}

func (op *oracleProgram) gen(r *rand.Rand) gQuery {
	var q gQuery
	n := 1
	switch x := r.Intn(10); {
	case x == 9:
		n = 4
	case x == 8:
		n = 3
	case x >= 6:
		n = 2
	}
	foreignAt := -1
	if r.Intn(6) == 0 {
		foreignAt = r.Intn(n)
	}
	for i := 0; i < n; i++ {
		q.atoms = append(q.atoms, op.genAtom(r, i == foreignAt))
	}
	if r.Intn(8) == 0 {
		op.corrupt(r, &q)
	}
	return q
}

func (op *oracleProgram) genAtom(r *rand.Rand, foreign bool) gAtom {
	p := op.preds[r.Intn(len(op.preds))]
	a := gAtom{pred: p, badArg: -1}
	state, known := specgraph.Root, true
	if p.fn {
		depth := oracleDepth(r)
		if len(op.syms) == 0 && !foreign {
			depth = 0
		}
		at := -1
		if foreign {
			depth = max(depth, 1)
			at = r.Intn(depth)
		}
		for i := 0; i < depth; i++ {
			if i == at || len(op.syms) == 0 {
				a.layers = append(a.layers, op.foreignLayer(r))
				known = false
				continue
			}
			j := r.Intn(len(op.syms))
			a.layers = append(a.layers, op.syms[j])
			state = op.sp.Row(state)[j]
		}
	}
	// Half the time the data arguments are a tuple that holds, where the
	// generator can tell: from the term's state, or the global facts.
	var holds [][]symbols.ConstID
	w := op.sp.W
	switch {
	case p.fn && known:
		for _, at := range w.StateAtoms(op.sp.State[state]) {
			if w.AtomPred(at) == p.id {
				holds = append(holds, w.TupleArgs(w.AtomTuple(at)))
			}
		}
	case !p.fn:
		for _, at := range op.sp.GlobalByPred(p.id) {
			holds = append(holds, w.TupleArgs(w.AtomTuple(at)))
		}
	}
	if len(holds) > 0 && r.Intn(2) == 0 {
		for _, c := range holds[r.Intn(len(holds))] {
			a.args = append(a.args, op.ref.Tab().ConstName(c))
		}
		return a
	}
	for i := 0; i < p.arity; i++ {
		a.args = append(a.args, op.constant(r))
	}
	return a
}

// constant draws a program constant, now and then one the program lacks.
func (op *oracleProgram) constant(r *rand.Rand) string {
	if len(op.consts) == 0 || r.Intn(10) == 0 {
		return op.novel[r.Intn(len(op.novel))]
	}
	return op.consts[r.Intn(len(op.consts))]
}

// foreignLayer is an application whose symbol the alphabet does not have.
func (op *oracleProgram) foreignLayer(r *rand.Rand) oracleSym {
	switch r.Intn(3) {
	case 0:
		if !op.hasSucc {
			return oracleSym{name: term.SuccName}
		}
	case 1:
		if len(op.mixed) > 0 {
			m := op.mixed[r.Intn(len(op.mixed))]
			s := oracleSym{name: m.name}
			novel := r.Intn(len(m.args))
			for i := range m.args {
				c := op.constant(r)
				if i == novel {
					c = op.novel[r.Intn(len(op.novel))]
				}
				s.args = append(s.args, c)
			}
			return s
		}
	}
	return oracleSym{name: op.foreign[r.Intn(len(op.foreign))]}
}

// corrupt breaks a query in one of the ways a client gets wrong.
func (op *oracleProgram) corrupt(r *rand.Rand, q *gQuery) {
	q.malformed = true
	a := &q.atoms[r.Intn(len(q.atoms))]
	switch r.Intn(5) {
	case 0:
		if a.pred.fn {
			a.constTerm = op.constant(r)
			return
		}
	case 1:
		if len(a.args) > 0 {
			a.badArg = r.Intn(len(a.args))
			a.badToks = []string{"f", "(", "0", ")"}
			return
		}
	case 2:
		if len(a.args) > 0 {
			a.badArg = r.Intn(len(a.args))
			a.badToks = []string{a.args[a.badArg], "+", strconv.Itoa(1 + r.Intn(3))}
			return
		}
	case 3:
		q.stray = 1 + r.Intn(1<<20)
		q.strayTok = []string{"&", "$", "!", "#", "~", "<", "?"}[r.Intn(7)]
		return
	}
	q.cut = 1 + r.Intn(1<<20)
}

// tokens renders q as the tokens of its text. With split, a numeral is
// written as a sum and +n as several, which leaves the shape as it was.
func (q *gQuery) tokens(r *rand.Rand, split bool) []string {
	toks := []string{"?-"}
	for i := range q.atoms {
		if i > 0 {
			toks = append(toks, ",")
		}
		toks = q.atoms[i].tokens(toks, r, split)
	}
	toks = append(toks, ".")
	if q.stray > 0 {
		toks[1+q.stray%(len(toks)-1)] = q.strayTok
	}
	if q.cut > 0 {
		toks = toks[:1+q.cut%(len(toks)-1)]
	}
	return toks
}

func (a *gAtom) tokens(toks []string, r *rand.Rand, split bool) []string {
	toks = append(toks, a.pred.name)
	if !a.pred.fn && a.pred.arity == 0 {
		return toks
	}
	toks = append(toks, "(")
	if a.pred.fn {
		if a.constTerm != "" {
			toks = append(toks, a.constTerm)
		} else {
			toks = termTokens(toks, a.layers, r, split)
		}
	}
	for j, c := range a.args {
		if a.pred.fn || j > 0 {
			toks = append(toks, ",")
		}
		if j == a.badArg {
			toks = append(toks, a.badToks...)
		} else {
			toks = append(toks, c)
		}
	}
	return append(toks, ")")
}

// termTokens writes a functional term: runs of succ as a numeral at the base
// and as +n after an application.
func termTokens(toks []string, layers []oracleSym, r *rand.Rand, split bool) []string {
	base := 0
	for base < len(layers) && layers[base].name == term.SuccName {
		base++
	}
	var apps []int // the other layers, innermost first
	for i := base; i < len(layers); i++ {
		if layers[i].name != term.SuccName {
			apps = append(apps, i)
		}
	}
	for k := len(apps) - 1; k >= 0; k-- {
		toks = append(toks, layers[apps[k]].name, "(")
	}
	toks = numeral(toks, base, r, split)
	for k, i := range apps {
		for _, c := range layers[i].args {
			toks = append(toks, ",", c)
		}
		toks = append(toks, ")")
		end := len(layers)
		if k+1 < len(apps) {
			end = apps[k+1]
		}
		toks = plus(toks, end-i-1, r, split)
	}
	return toks
}

func numeral(toks []string, n int, r *rand.Rand, split bool) []string {
	if !split || r.Intn(3) == 0 {
		return append(toks, strconv.Itoa(n))
	}
	a := r.Intn(n + 1)
	toks = append(toks, strconv.Itoa(a))
	return plus(toks, n-a, r, true)
}

func plus(toks []string, n int, r *rand.Rand, split bool) []string {
	for n > 0 {
		k := n
		if split {
			k = 1 + r.Intn(n)
		}
		toks = append(toks, "+", strconv.Itoa(k))
		n -= k
	}
	return toks
}

// canonicalSep is the spacing of a query as a person writes it.
func canonicalSep(toks []string) func(i int) string {
	return func(i int) string {
		if i > 0 && i < len(toks) && (toks[i-1] == "?-" || toks[i-1] == ",") {
			return " "
		}
		return ""
	}
}

// respellSep puts random whitespace, newlines and % comments between tokens.
func respellSep(r *rand.Rand) func(i int) string {
	seps := []string{"", "", "", " ", "  ", "\n", "\t", " \n  ", "\r\n", " % note\n", "\n%\n", "%)\n "}
	return func(int) string { return seps[r.Intn(len(seps))] }
}

// join writes toks with sep(i) before token i (and sep(len) after the
// last), returning the text and each token's byte offset.
func join(toks []string, sep func(i int) string) (string, []int) {
	var b strings.Builder
	offs := make([]int, len(toks))
	for i, tok := range toks {
		b.WriteString(sep(i))
		offs[i] = b.Len()
		b.WriteString(tok)
	}
	b.WriteString(sep(len(toks)))
	return b.String(), offs
}

// --- Backends ---

type planOracle struct {
	snap   *Snapshot
	method Method
}

func (o planOracle) Ask(text string) (bool, error) {
	ctx := context.Background()
	p, err := o.snap.Prepare(ctx, text)
	if err != nil {
		return false, err
	}
	if !p.Ground() {
		return false, fmt.Errorf("oracle: %q compiled to an open plan", text)
	}
	return p.Ask(ctx, WithMethod(o.method))
}

// refAtom is one atom lowered the way the program was compiled: its mixed
// applications eliminated into derived symbols by rewrite.EliminateMixed.
type refAtom struct {
	pred symbols.PredID
	fn   bool
	syms []symbols.FuncID // innermost first
	args []symbols.ConstID
}

// lower parses text against a private copy of the reference table (so what
// one query interns is never seen by the next) and lowers its atoms.
func (op *oracleProgram) lower(text string) ([]refAtom, error) {
	tab := op.ref.Tab().Clone()
	q, err := parser.ParseQueryTab(tab, text)
	if err != nil {
		return nil, err
	}
	out := make([]refAtom, len(q.Atoms))
	for i := range q.Atoms {
		a := &q.Atoms[i]
		if !a.IsGround() {
			return nil, fmt.Errorf("oracle: %s is not ground", a.Format(tab))
		}
		out[i] = refAtom{pred: a.Pred, fn: a.FT != nil, args: constArgs(a)}
		if a.FT == nil {
			continue
		}
		pure, err := rewrite.EliminateMixed(&ast.Program{Tab: tab, Facts: []ast.Atom{*a}})
		if err != nil {
			return nil, err
		}
		for _, app := range pure.Facts[0].FT.Apps {
			out[i].syms = append(out[i].syms, app.Fn)
		}
	}
	return out, nil
}

// specOracle walks the representatives' table over the eliminated symbol
// string; under range restriction no atom over a term with a symbol outside
// the alphabet is in the least fixpoint.
type specOracle struct{ op *oracleProgram }

func (o specOracle) Ask(text string) (bool, error) {
	atoms, err := o.op.lower(text)
	if err != nil {
		return false, err
	}
	sp := o.op.sp
	for _, a := range atoms {
		var ok bool
		if !a.fn {
			ok = sp.HasData(a.pred, a.args)
		} else if i, _, in := sp.Walk(a.syms); in {
			ok = sp.W.StateContains(sp.State[i], sp.W.Atom(a.pred, sp.W.Tuple(a.args)))
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

type topdownOracle struct{ op *oracleProgram }

func (o topdownOracle) Ask(text string) (bool, error) {
	atoms, err := o.op.lower(text)
	if err != nil {
		return false, err
	}
	for _, a := range atoms {
		if len(a.syms) > topdownMaxDepth {
			return false, errNotApplicable
		}
	}
	ev, err := o.op.ref.Prover(topdown.Options{MaxTables: topdownMaxTables})
	if err != nil {
		return false, err
	}
	u := o.op.ref.Universe()
	verdict := true
	for _, a := range atoms {
		t := term.None
		if a.fn {
			t = u.ApplyString(term.Zero, a.syms...)
		}
		ok, err := ev.Prove(a.pred, t, a.args)
		if err != nil {
			return false, errNotApplicable // the table budget ran out
		}
		if !ok {
			verdict = false
			break
		}
	}
	if !ev.Complete() {
		return false, errNotApplicable
	}
	return verdict, nil
}

type fixpointOracle struct{ op *oracleProgram }

func (o fixpointOracle) Ask(text string) (bool, error) {
	if o.op.fix == nil {
		return false, errNotApplicable
	}
	atoms, err := o.op.lower(text)
	if err != nil {
		return false, err
	}
	for _, a := range atoms {
		if len(a.syms) > fixpointMaxDepth {
			return false, errNotApplicable
		}
	}
	st := o.op.fix.Store
	for _, a := range atoms {
		var ok bool
		if a.fn {
			ok = st.HasFn(a.pred, o.op.fixU.ApplyString(term.Zero, a.syms...), a.args)
		} else {
			ok = st.HasData(a.pred, a.args)
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

type namedOracle struct {
	name string
	o    Oracle
	plan bool // asked every spelling, not only the canonical one
}

func oracleBackends(op *oracleProgram) []namedOracle {
	return []namedOracle{
		{"Plan.Ask", planOracle{op.snap, MethodGraph}, true},
		{"Plan.Ask(equational)", planOracle{op.snap, MethodEquational}, true},
		{"spec walk", specOracle{op}, false},
		{"topdown", topdownOracle{op}, false},
		{"fixpoint", fixpointOracle{op}, false},
	}
}

// --- Laws ---

type oracleViolation struct {
	law, detail, text string
}

// oracleCase is one generated query; seed drives its respellings.
type oracleCase struct {
	op   *oracleProgram
	q    gQuery
	seed int64
}

type answer struct {
	ok  bool
	err error
}

func (a answer) String() string {
	if a.err != nil {
		return "error " + strconv.Quote(a.err.Error())
	}
	return strconv.FormatBool(a.ok)
}

func sameAnswer(a, b answer) bool {
	if (a.err != nil) != (b.err != nil) {
		return false
	}
	if a.err != nil {
		return a.err.Error() == b.err.Error()
	}
	return a.ok == b.ok
}

// spelling is one text of a case with its tokens' offsets; offs is nil when
// its tokens are not the canonical spelling's.
type spelling struct {
	text string
	offs []int
}

func (c *oracleCase) spellings() []spelling {
	r := rand.New(rand.NewSource(c.seed))
	toks := c.q.tokens(nil, false)
	canon, offs := join(toks, canonicalSep(toks))
	resp, roffs := join(toks, respellSep(r))
	out := []spelling{{canon, offs}, {resp, roffs}}
	if !c.q.malformed {
		split := c.q.tokens(r, true)
		arith, _ := join(split, respellSep(r))
		out = append(out, spelling{arith, nil})
	}
	return out
}

// check runs every backend over the case's spellings and returns the first
// law it breaks, or nil.
func (c *oracleCase) check(backends []namedOracle) *oracleViolation {
	sps := c.spellings()
	canon := sps[0]
	var want answer
	var wantFrom string
	var lines []string
	for _, b := range backends {
		ok, err := b.o.Ask(canon.text)
		if errors.Is(err, errNotApplicable) {
			continue
		}
		got := answer{ok, err}
		lines = append(lines, fmt.Sprintf("%s: %s", b.name, got))
		if wantFrom == "" {
			want, wantFrom = got, b.name
		} else if !sameAnswer(got, want) {
			return &oracleViolation{"backends agree", strings.Join(lines, "; "), canon.text}
		}
	}
	ctx := context.Background()
	p0, err0 := c.op.snap.Prepare(ctx, canon.text)
	for _, sp := range sps[1:] {
		for _, b := range backends {
			if !b.plan {
				continue
			}
			ok, err := b.o.Ask(sp.text)
			got := answer{ok, err}
			if want.err == nil {
				if !sameAnswer(got, want) {
					return &oracleViolation{"a respelling has the canonical verdict", fmt.Sprintf("%s: %s, canonical %s", b.name, got, want), sp.text}
				}
				continue
			}
			if err == nil {
				return &oracleViolation{"a respelling has the canonical verdict", fmt.Sprintf("%s: %s, canonical %s", b.name, got, want), sp.text}
			}
			if sp.offs == nil {
				continue
			}
			wi, wm := errAt(want.err, canon.text, canon.offs)
			gi, gm := errAt(err, sp.text, sp.offs)
			if wi != gi || wm != gm {
				return &oracleViolation{"an error names the same token in every spelling",
					fmt.Sprintf("%s: token %d %q, canonical token %d %q", b.name, gi, gm, wi, wm), sp.text}
			}
		}
		if err0 != nil {
			continue
		}
		p, err := c.op.snap.Prepare(ctx, sp.text)
		if err != nil {
			return &oracleViolation{"a respelling has the canonical shape", "Prepare: " + err.Error(), sp.text}
		}
		if p.Shape() != p0.Shape() || p.Fingerprint() != p0.Fingerprint() {
			return &oracleViolation{"a respelling has the canonical shape",
				fmt.Sprintf("shape %.80q fingerprint %s, canonical %.80q %s", p.Shape(), p.Fingerprint(), p0.Shape(), p0.Fingerprint()), sp.text}
		}
	}
	return nil
}

var posPrefix = regexp.MustCompile(`^(\d+):(\d+): `)

// errAt splits an error into the token its position names — -1 when it
// names none, len(offs) for the end of the text, -2 for a place where no
// token starts — and its message without the position.
func errAt(err error, text string, offs []int) (int, string) {
	line, col, msg := 0, 0, err.Error()
	var pe *parser.ParseError
	if errors.As(err, &pe) {
		line, col, msg = pe.Line, pe.Col, pe.Msg
	} else if m := posPrefix.FindStringSubmatch(msg); m != nil {
		line, _ = strconv.Atoi(m[1])
		col, _ = strconv.Atoi(m[2])
		msg = msg[len(m[0]):]
	}
	if line == 0 || col == 0 {
		return -1, msg
	}
	off := 0
	for l := 1; l < line; l++ {
		i := strings.IndexByte(text[off:], '\n')
		if i < 0 {
			return -2, msg
		}
		off += i + 1
	}
	off += col - 1
	if off == len(text) {
		return len(offs), msg
	}
	if i := sort.SearchInts(offs, off); i < len(offs) && offs[i] == off {
		return i, msg
	}
	return -2, msg
}

// shrink looks for a smaller case breaking the same law: fewer atoms, fewer
// layers in a term.
func (c oracleCase) shrink(backends []namedOracle, v *oracleViolation) (oracleCase, *oracleViolation) {
	for budget := 200; budget > 0; {
		next := false
		for _, cand := range c.smaller() {
			budget--
			if w := cand.check(backends); w != nil && w.law == v.law {
				c, v, next = cand, w, true
				break
			}
		}
		if !next {
			break
		}
	}
	return c, v
}

func (c oracleCase) smaller() []oracleCase {
	var out []oracleCase
	with := func(f func(q *gQuery)) {
		q := c.q.clone()
		f(&q)
		out = append(out, oracleCase{c.op, q, c.seed})
	}
	for i := range c.q.atoms {
		if len(c.q.atoms) > 1 {
			i := i
			with(func(q *gQuery) { q.atoms = append(q.atoms[:i], q.atoms[i+1:]...) })
		}
	}
	for i := range c.q.atoms {
		i := i
		n := len(c.q.atoms[i].layers)
		if n == 0 {
			continue
		}
		with(func(q *gQuery) { q.atoms[i].layers = q.atoms[i].layers[:n/2] })
		with(func(q *gQuery) { q.atoms[i].layers = q.atoms[i].layers[n-n/2:] })
		with(func(q *gQuery) { q.atoms[i].layers = q.atoms[i].layers[:n-1] })
		with(func(q *gQuery) { q.atoms[i].layers = q.atoms[i].layers[1:] })
	}
	return out
}

// oracleFailure is one broken law, shrunk.
type oracleFailure struct {
	program string
	seed    int64
	v       *oracleViolation
}

func (f oracleFailure) String() string {
	return fmt.Sprintf("%s, seed %d: law %q broken: %s\n\trepro: program=%s text=%q", f.program, f.seed, f.v.law, f.v.detail, f.program, f.v.text)
}

// oraclePrograms builds every program of the oracle, in name order.
func oraclePrograms(t *testing.T) []*oracleProgram {
	progs := stablePrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*oracleProgram, len(names))
	for i, name := range names {
		out[i] = newOracleProgram(t, name, progs[name].src)
	}
	return out
}

// runOracle asks cases generated queries of each program and reports the
// first broken law per program. wrap, when not nil, stands between the laws
// and the backends.
func runOracle(progs []*oracleProgram, cases int, wrap func([]namedOracle) []namedOracle) []oracleFailure {
	var out []oracleFailure
	for pi, op := range progs {
		backends := oracleBackends(op)
		if wrap != nil {
			backends = wrap(backends)
		}
		for i := 0; i < cases; i++ {
			seed := int64(pi)<<32 | int64(i)
			c := oracleCase{op, op.gen(rand.New(rand.NewSource(seed))), seed}
			if v := c.check(backends); v != nil {
				c, v = c.shrink(backends, v)
				out = append(out, oracleFailure{op.name, seed, v})
				break
			}
		}
	}
	return out
}

// TestGroundOracle: every backend agrees on every generated ground query
// and its respellings.
func TestGroundOracle(t *testing.T) {
	cases := oracleCases
	if testing.Short() {
		cases /= 4
	}
	for _, f := range runOracle(oraclePrograms(t), cases, nil) {
		t.Error(f)
	}
}

// TestGroundOracleCatches re-plants two bugs this code could have and
// requires the default seed budget to find each, with its seed and a repro:
//
//   - the compile's mixed-application memo keyed on the function symbol
//     alone, so move(move(0, p0, p1), p1, p2) lowers its second layer to
//     move'p0'p1 (planted through mixedKey);
//   - an offset → line:col conversion one column short after a newline. It
//     lives in the parser, which this package's tests cannot reach into, so
//     it is planted at the parser's output: every backend's error has its
//     position converted back to an offset and then forward the buggy way.
//     All backends share the parser, so only the respelling law can see it.
func TestGroundOracleCatches(t *testing.T) {
	t.Run("mixed memo keyed on the functor", func(t *testing.T) {
		restore := mixedKey
		mixedKey = func(app ast.FApp) (symbols.FuncID, []ast.DTerm) { return app.Fn, nil }
		defer func() { mixedKey = restore }()
		requireCaught(t, runOracle(oraclePrograms(t), oracleCases, nil), "backends agree")
	})
	t.Run("line:col off by one after a newline", func(t *testing.T) {
		wrap := func(bs []namedOracle) []namedOracle {
			out := make([]namedOracle, len(bs))
			for i, b := range bs {
				out[i] = b
				out[i].o = lineColBug{b.o}
			}
			return out
		}
		requireCaught(t, runOracle(oraclePrograms(t), oracleCases, wrap), "an error names the same token in every spelling")
	})
}

func requireCaught(t *testing.T, fails []oracleFailure, law string) {
	t.Helper()
	for _, f := range fails {
		if f.v.law == law {
			t.Logf("caught: %s", f)
			return
		}
	}
	t.Errorf("the planted bug went unnoticed: no %q failure in %d failures", law, len(fails))
}

// lineColBug re-renders every positioned error of o as an offset → line:col
// conversion one column short after a newline would have.
type lineColBug struct{ o Oracle }

func (b lineColBug) Ask(text string) (bool, error) {
	ok, err := b.o.Ask(text)
	if err == nil || errors.Is(err, errNotApplicable) {
		return ok, err
	}
	line, col, msg := 0, 0, err.Error()
	var pe *parser.ParseError
	if errors.As(err, &pe) {
		line, col, msg = pe.Line, pe.Col, pe.Msg
	} else if m := posPrefix.FindStringSubmatch(msg); m != nil {
		line, _ = strconv.Atoi(m[1])
		col, _ = strconv.Atoi(m[2])
		msg = msg[len(m[0]):]
	}
	if line == 0 || col == 0 {
		return ok, err
	}
	off := 0
	for l, rest := 1, text; l < line; l++ {
		i := strings.IndexByte(rest, '\n')
		off, rest = off+i+1, rest[i+1:]
	}
	off += col - 1
	line = 1 + strings.Count(text[:off], "\n")
	if nl := strings.LastIndexByte(text[:off], '\n'); nl >= 0 {
		col = off - nl - 1
	}
	if pe != nil {
		return ok, &parser.ParseError{Line: line, Col: col, Msg: msg}
	}
	return ok, fmt.Errorf("%d:%d: %s", line, col, msg)
}
