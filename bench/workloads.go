package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"funcdb/internal/core"
	"funcdb/internal/datagen"
	"funcdb/internal/watch"
)

// workloadInfo names a workload and records why it exists; BENCHMARK.json
// carries the same list.
type workloadInfo struct {
	Name string
	Why  string
}

var workloads = []workloadInfo{
	{"ask_hot", "64 ground asks via fdbrouter: fits answer LRU and plan cache, so shard, server and HTTP framing do all the work"},
	{"ask_wide", "65536 ground asks via fdbrouter: larger than both caches, so every op pays parse, plan compile, interning and the DFA walk"},
	{"answers", "open queries direct to fdbd, >8k (text, depth) pairs: LRU misses, plan cache hits; 75% Theorem 5.1 incremental, 25% recompute"},
	{"write_mix", "durable fdbd, fsync always: per-client 50-op cycles of PUT compile, facts (Extend, recompile), reads, plus one watch stream"},
	{"lib_ask", "in-process Snapshot.Ask on the ask_hot pool, no HTTP: only core and specgraph work, the floor the HTTP path is compared with"},
}

func newWorkload(o runOpts) (workload, error) {
	switch o.Workload {
	case "ask_hot":
		return newAskWorkload(o, false)
	case "ask_wide":
		return newAskWorkload(o, true)
	case "answers":
		return newAnswersWorkload(o)
	case "write_mix":
		return newWriteMix(o)
	case "lib_ask":
		return newLibAsk(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.Workload)
}

// httpBase carries what the three read/write HTTP workloads share.
type httpBase struct {
	o      runOpts
	cfg    stackConfig
	st     *stack
	client *http.Client
}

func (b *httpBase) Stack() *stack { return b.st }

func (b *httpBase) launch() error {
	st, err := b.o.Launch.Launch(b.cfg)
	if err != nil {
		return err
	}
	b.st = st
	b.client = newHTTPClient(b.o.Clients + 1)
	return nil
}

func (b *httpBase) TearDown() error {
	if b.st == nil {
		return nil
	}
	b.client.CloseIdleConnections()
	err := b.st.Close()
	b.st = nil
	return err
}

func (b *httpBase) LayerExtras(map[string]float64, float64) {}

type askResponse struct {
	Answer  bool   `json:"answer"`
	Version uint64 `json:"version"`
}

func askBody(text string) []byte { return []byte(`{"query":"` + text + `"}`) }

// ---- ask_hot / ask_wide -------------------------------------------------

// wideOracleEvery is the share of ask_wide slots re-derived by the
// equational oracle after the timed phase (every op is checked inline
// against the truth the generator constructed the query to have; a cold
// oracle ask costs 2-4 ms, about as much as the op it checks).
const wideOracleEvery = 8

const (
	hotWarmupPasses = 4
	wideWarmupOps   = 256
)

type askWorkload struct {
	httpBase
	wide bool
	orc  *oracle
	// hot pool, with oracle answers.
	pool   []groundQuery
	bodies [][]byte
	// issued[c] collects the ask_wide slots client c sent that the oracle
	// re-checks in Finish.
	issued []map[int]struct{}
}

func newAskWorkload(o runOpts, wide bool) (*askWorkload, error) {
	w := &askWorkload{wide: wide}
	w.o = o
	w.cfg = stackConfig{Preload: catalog(), Router: true}
	var err error
	if w.orc, err = newOracle(catalog()); err != nil {
		return nil, err
	}
	if !wide {
		if w.pool, w.bodies, err = oracleHotPool(w.orc, o.Seed); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// oracleHotPool generates the hot pool and replaces each by-construction
// truth with the oracle's answer, refusing to run if the two disagree (that
// is a bug in the generator or the oracle, not in the system under test).
func oracleHotPool(orc *oracle, seed int64) ([]groundQuery, [][]byte, error) {
	pool := hotPool(seed)
	bodies := make([][]byte, len(pool))
	for i, q := range pool {
		got, err := orc.ask(context.Background(), q.DB, q.Text)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: %s: %w", q.Text, err)
		}
		if got != q.Truth {
			return nil, nil, fmt.Errorf("oracle answers %v for a query built to be %v: %s", got, q.Truth, q.Text)
		}
		bodies[i] = askBody(q.Text)
	}
	return pool, bodies, nil
}

func (w *askWorkload) Classes() []string { return []string{"ask"} }

func (w *askWorkload) askURL(db string) string { return w.st.Routed + "/v1/db/" + db + "/ask" }

// ask sends one query through the router and checks the answer.
func (w *askWorkload) ask(db string, body []byte, want bool) bool {
	var resp askResponse
	if err := postJSON(w.client, http.MethodPost, w.askURL(db), body, &resp); err != nil {
		return false
	}
	return resp.Answer == want && resp.Version >= 1
}

func (w *askWorkload) SetUp() error {
	if err := w.launch(); err != nil {
		return err
	}
	if w.wide {
		slots := make([]int, wideWarmupOps)
		r := newRNG(w.o.Seed, 1<<32)
		for i := range slots {
			slots[i] = r.intn(widePoolSize)
		}
		return warmUp(len(slots), w.o.Clients, func(i int) error {
			q := wideQuery(w.o.Seed, slots[i])
			if !w.ask(q.DB, askBody(q.Text), q.Truth) {
				return fmt.Errorf("warm-up ask failed: %.80s", q.Text)
			}
			return nil
		})
	}
	return warmUp(hotWarmupPasses*len(w.pool), w.o.Clients, func(i int) error {
		q := w.pool[i%len(w.pool)]
		if !w.ask(q.DB, w.bodies[i%len(w.pool)], q.Truth) {
			return fmt.Errorf("warm-up ask failed: %.80s", q.Text)
		}
		return nil
	})
}

// warmUp performs ops 0..n-1 on as many goroutines as the timed phase has
// clients. A single client would leave the cores idle between request and
// reply, which makes set-up time depend on how fast the hypervisor wakes an
// idle vCPU rather than on the system.
func warmUp(n, clients int, op func(i int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n && errs[c] == nil; i += clients {
				errs[c] = op(i)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *askWorkload) Clients() []opFunc {
	ops := make([]opFunc, w.o.Clients)
	w.issued = make([]map[int]struct{}, w.o.Clients)
	for c := range ops {
		if w.wide {
			r := newRNG(w.o.Seed, 1<<33+uint64(c))
			issued := make(map[int]struct{})
			w.issued[c] = issued
			ops[c] = func() opResult {
				slot := r.intn(widePoolSize)
				q := wideQuery(w.o.Seed, slot)
				if slot%wideOracleEvery == 0 {
					issued[slot] = struct{}{}
				}
				return result(0, w.ask(q.DB, askBody(q.Text), q.Truth))
			}
			continue
		}
		next := c * len(w.pool) / w.o.Clients
		ops[c] = func() opResult {
			i := next % len(w.pool)
			next++
			return result(0, w.ask(w.pool[i].DB, w.bodies[i], w.pool[i].Truth))
		}
	}
	return ops
}

func result(class uint8, ok bool) opResult {
	r := opResult{Class: class, Ops: 1}
	if !ok {
		r.Failed = 1
	}
	return r
}

func (w *askWorkload) Finish() (attempted, failed int, notes []string) {
	if !w.wide {
		return 0, 0, nil
	}
	slots := make(map[int]struct{})
	for _, m := range w.issued {
		for s := range m {
			slots[s] = struct{}{}
		}
	}
	list := make([]int, 0, len(slots))
	for s := range slots {
		list = append(list, s)
	}
	bad := parallelCount(list, w.o.Clients, func(slot int) bool {
		q := wideQuery(w.o.Seed, slot)
		got, err := w.orc.ask(context.Background(), q.DB, q.Text)
		return err == nil && got == q.Truth
	})
	if bad > 0 {
		notes = append(notes, fmt.Sprintf("%d of %d sampled slots: equational oracle disagrees with the constructed truth", bad, len(list)))
	}
	return len(list), bad, notes
}

// parallelCount runs check over items on n goroutines and counts the items
// it rejects.
func parallelCount(items []int, n int, check func(int) bool) int {
	var wg sync.WaitGroup
	bad := make([]int, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(items); i += n {
				if !check(items[i]) {
					bad[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, b := range bad {
		total += b
	}
	return total
}

// ---- answers ------------------------------------------------------------

const (
	answersWarmupOps = 512
	// answersOracleEvery is the share of (text, depth) pairs whose tuple
	// set the oracle recomputes after the timed phase; every response is
	// also compared with the first response seen for its pair.
	answersOracleEvery = 4
	classUniform       = 0
	classNonUniform    = 1
)

type answersResponse struct {
	Tuples []struct {
		Term string   `json:"term"`
		Args []string `json:"args"`
	} `json:"tuples"`
	Count     int    `json:"count"`
	Truncated bool   `json:"truncated"`
	Version   uint64 `json:"version"`
}

func (r *answersResponse) set() tupleSet {
	s := tupleSet{Truncated: r.Truncated}
	for _, t := range r.Tuples {
		s.add(t.Term, t.Args)
	}
	return s
}

func answersBody(text string, depth int) []byte {
	return []byte(`{"query":"` + text + `","depth":` + strconv.Itoa(depth) + `,"limit":` + strconv.Itoa(answersLimit) + `}`)
}

type answersWorkload struct {
	httpBase
	orc *oracle
	// pools[classUniform], pools[classNonUniform]; pair id = class<<16|index.
	pools  [2][]answersQuery
	bodies [2][][]byte
	seen   []map[int]tupleSet // per client: first response per pair
}

func newAnswersWorkload(o runOpts) (*answersWorkload, error) {
	w := &answersWorkload{}
	w.o = o
	w.cfg = stackConfig{Preload: catalog()}
	var err error
	if w.orc, err = newOracle(catalog()); err != nil {
		return nil, err
	}
	w.pools[classUniform], w.pools[classNonUniform] = answersPool()
	for c := range w.pools {
		for _, q := range w.pools[c] {
			w.bodies[c] = append(w.bodies[c], answersBody(q.Text, q.Depth))
		}
	}
	return w, nil
}

func (w *answersWorkload) Classes() []string { return []string{"uniform", "nonuniform"} }

// pick draws one pair: 75% uniform, 25% non-uniform, uniformly within.
func (w *answersWorkload) pick(r *rng) (class, idx int) {
	if r.intn(4) == 3 {
		class = classNonUniform
	}
	return class, r.intn(len(w.pools[class]))
}

func (w *answersWorkload) query(class, idx int) (tupleSet, bool) {
	q := w.pools[class][idx]
	var resp answersResponse
	err := postJSON(w.client, http.MethodPost, w.st.Direct+"/v1/db/"+q.DB+"/answers", w.bodies[class][idx], &resp)
	if err != nil || resp.Count != len(resp.Tuples) || resp.Version < 1 {
		return tupleSet{}, false
	}
	return resp.set(), true
}

func (w *answersWorkload) SetUp() error {
	if err := w.launch(); err != nil {
		return err
	}
	pairs := w.warmUpPairs()
	return warmUp(len(pairs), w.o.Clients, func(i int) error {
		if _, ok := w.query(pairs[i].class, pairs[i].idx); !ok {
			return fmt.Errorf("warm-up answers failed: %s", w.pools[pairs[i].class][pairs[i].idx].Text)
		}
		return nil
	})
}

// pair names one (text, depth) pair of a pool.
type pair struct{ class, idx int }

// warmUpPairs picks about answersWarmupOps pairs, 3 uniform : 1 non-uniform
// like the timed phase, but by quota instead of by lot: every run of
// consecutive pool entries with the same database and depth contributes its
// share (at least one), at seeded positions. Costs span 400x — a depth-3
// `At(S, p)` on rob takes 90 ms, a cal query 0.2 ms — so drawing at random
// would make set-up time a lottery on the seed.
func (w *answersWorkload) warmUpPairs() []pair {
	r := newRNG(w.o.Seed, 1<<32)
	var pairs []pair
	for class, pool := range w.pools {
		quota := answersWarmupOps / 4
		if class == classUniform {
			quota = answersWarmupOps - quota
		}
		for lo := 0; lo < len(pool); {
			hi := lo
			for hi < len(pool) && pool[hi].DB == pool[lo].DB && pool[hi].Depth == pool[lo].Depth {
				hi++
			}
			n := ((hi-lo)*quota + len(pool)/2) / len(pool)
			if n < 1 {
				n = 1
			}
			start := r.intn(hi - lo)
			for j := 0; j < n; j++ {
				pairs = append(pairs, pair{class, lo + (start+j*(hi-lo)/n)%(hi-lo)})
			}
			lo = hi
		}
	}
	// Interleave the classes and families the way the timed phase does.
	for i := len(pairs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	return pairs
}

func (w *answersWorkload) Clients() []opFunc {
	ops := make([]opFunc, w.o.Clients)
	w.seen = make([]map[int]tupleSet, w.o.Clients)
	for c := range ops {
		r := newRNG(w.o.Seed, 1<<33+uint64(c))
		seen := make(map[int]tupleSet)
		w.seen[c] = seen
		ops[c] = func() opResult {
			class, idx := w.pick(&r)
			got, ok := w.query(class, idx)
			if ok {
				id := class<<16 | idx
				if first, dup := seen[id]; !dup {
					seen[id] = got
				} else if first != got {
					ok = false
				}
			}
			return result(uint8(class), ok)
		}
	}
	return ops
}

func (w *answersWorkload) Finish() (attempted, failed int, notes []string) {
	merged := make(map[int]tupleSet)
	for _, m := range w.seen {
		for id, s := range m {
			if first, dup := merged[id]; dup && first != s {
				attempted++
				failed++
				notes = append(notes, "two clients saw different tuple sets for "+w.pools[id>>16][id&0xffff].Text)
				continue
			}
			merged[id] = s
		}
	}
	var sampled []int
	for id := range merged {
		if (id&0xffff)%answersOracleEvery == 0 {
			sampled = append(sampled, id)
		}
	}
	bad := parallelCount(sampled, w.o.Clients, func(id int) bool {
		want, err := w.orc.answers(context.Background(), w.pools[id>>16][id&0xffff])
		return err == nil && want == merged[id]
	})
	if bad > 0 {
		notes = append(notes, fmt.Sprintf("%d of %d sampled pairs differ from Snapshot.Answers", bad, len(sampled)))
	}
	return attempted + len(sampled), failed + bad, notes
}

// ---- write_mix ----------------------------------------------------------

const (
	cycleLen   = 50
	cycleFacts = 8
	// deepFact is the index, among a cycle's facts, of the one whose
	// ground term is deeper than anything in the program and so forces a
	// recompile instead of the monotone fast path.
	deepFact   = 3
	watchQuery = "?- Meets(T, X)."
	watchDepth = 16

	classPut   = 0
	classFacts = 1
	classRead  = 2
)

// Kinds of cycle operation.
const (
	kindPut = iota
	kindFacts
	kindAsk
	kindAnswers
)

// writeVariants are the programs a write_mix client rotates through, one
// PUT per cycle.
var writeVariants = []struct {
	fam     family
	src     string
	answers answersQuery
}{
	{famSub, datagen.SubsetsSrc(7), answersQuery{Text: "?- Member(S, e1).", Depth: 2}},
	{famRob, datagen.RobotSrc(8), answersQuery{Text: "?- At(S, p2).", Depth: 3}},
	{famCal, datagen.CalendarSrc(64), answersQuery{Text: watchQuery, Depth: watchDepth}},
}

// cycleOp is one operation of a client's cycle with its expected outcome,
// derived by replaying the cycle on an in-process mirror database.
type cycleOp struct {
	kind    int
	body    []byte
	wantAsk bool
	wantSet tupleSet
	// watchState is the watched query's answer set after this write.
	watchState map[string]struct{}
}

// factText renders one ground fact for a variant. Depth-0 facts take the
// monotone fast path; once the cycle's deep fact has raised the program's
// ground depth to 1 (sub, rob) or deepDay (cal), facts up to that depth do
// too.
func factText(f family, deep bool, deepDay int, r *rng) string {
	switch f {
	case famCal:
		day := 0
		if deep {
			day = deepDay
		} else if deepDay > 0 {
			day = r.intn(deepDay + 1)
		}
		return fmt.Sprintf("Meets(%d, s%d).", day, r.intn(calN))
	case famSub:
		if deep || (deepDay > 0 && r.intn(2) == 0) {
			return fmt.Sprintf("Member(ext(0, e%d), e%d).", r.intn(7), r.intn(7))
		}
		return fmt.Sprintf("Member(0, e%d).", r.intn(7))
	default:
		if deep || (deepDay > 0 && r.intn(2) == 0) {
			return fmt.Sprintf("At(move(0, p%d, p%d), p%d).", r.intn(robN), r.intn(robN), r.intn(robN))
		}
		return fmt.Sprintf("At(0, p%d).", r.intn(robN))
	}
}

var baseFact = [numFamilies]string{famCal: "Meets(0, s0).", famSub: "P(e0).", famRob: "At(0, p0)."}

// buildCycle generates one client's cycle for one variant and fills in the
// expected outcomes from a mirror database: asks by the equational oracle,
// answers through Snapshot.Answers.
func buildCycle(variant int, r *rng, withWatch bool) ([]cycleOp, error) {
	v := writeVariants[variant]
	kinds := make([]int, 0, cycleLen-1)
	for i := 0; i < cycleFacts; i++ {
		kinds = append(kinds, kindFacts)
	}
	kinds = append(kinds, kindAnswers)
	for len(kinds) < cycleLen-1 {
		kinds = append(kinds, kindAsk)
	}
	for i := len(kinds) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	ctx := context.Background()
	db, err := core.Open(v.src, core.Options{})
	if err != nil {
		return nil, err
	}
	watchState := func() (map[string]struct{}, error) {
		if !withWatch {
			return nil, nil
		}
		s, err := db.Snapshot()
		if err != nil {
			return nil, err
		}
		state := make(map[string]struct{})
		var truncated bool
		err = enumerate(ctx, s, watchQuery, watchDepth, answersLimit, func(termStr string, args []string) {
			state[tupleKey(termStr, args)] = struct{}{}
		}, &truncated)
		return state, err
	}
	cycle := make([]cycleOp, 0, cycleLen)
	put := cycleOp{kind: kindPut, body: []byte(v.src)}
	if put.watchState, err = watchState(); err != nil {
		return nil, err
	}
	cycle = append(cycle, put)
	lastFact := baseFact[v.fam]
	nFacts, nAsks, deepDay := 0, 0, 0
	for _, kind := range kinds {
		op := cycleOp{kind: kind}
		switch kind {
		case kindFacts:
			deep := nFacts == deepFact
			if deep {
				deepDay = 8 + r.intn(8)
			}
			lastFact = factText(v.fam, deep, deepDay, r)
			nFacts++
			if err := db.Extend(lastFact); err != nil {
				return nil, fmt.Errorf("mirror extend %s: %w", lastFact, err)
			}
			op.body = []byte(`{"facts":"` + lastFact + `"}`)
			if op.watchState, err = watchState(); err != nil {
				return nil, err
			}
		case kindAsk:
			// Alternate between re-asking the fact posted last (it must
			// hold at the version its POST returned) and a fresh query.
			reask := nAsks%2 == 0
			nAsks++
			text := "?- " + lastFact
			if !reask {
				text = groundText(v.fam, r.intn(64), r.intn(2) == 0, r).Text
			}
			s, err := db.Snapshot()
			if err != nil {
				return nil, err
			}
			if op.wantAsk, err = askEquational(ctx, s, text); err != nil {
				return nil, fmt.Errorf("mirror ask %s: %w", text, err)
			}
			if reask && !op.wantAsk {
				return nil, fmt.Errorf("mirror: posted fact does not hold: %s", text)
			}
			op.body = askBody(text)
		case kindAnswers:
			s, err := db.Snapshot()
			if err != nil {
				return nil, err
			}
			if op.wantSet, err = answersSet(ctx, s, v.answers.Text, v.answers.Depth, answersLimit); err != nil {
				return nil, err
			}
			op.body = answersBody(v.answers.Text, v.answers.Depth)
		}
		cycle = append(cycle, op)
	}
	return cycle, nil
}

type putResponse struct {
	Version uint64 `json:"version"`
}

// writeClient is one request client of write_mix: a private database and
// its cycles.
type writeClient struct {
	db      string
	cycles  [][]cycleOp // per variant
	variant int
	pos     int
	version uint64
	// lastWrite is the most recent write executed, for the watch check.
	lastWrite *cycleOp
	// sent records when the write that produced each version was sent
	// (client 0 only; joined with frame arrivals in Finish).
	sent map[uint64]time.Time
}

type writeMix struct {
	httpBase
	clients []*writeClient
	wt      *watcher
}

func newWriteMix(o runOpts) (*writeMix, error) {
	w := &writeMix{}
	w.o = o
	w.cfg = stackConfig{Durable: true}
	n := o.Clients - 1
	if n < 1 {
		n = 1
	}
	for c := 0; c < n; c++ {
		cl := &writeClient{db: "w" + strconv.Itoa(c)}
		if c == 0 {
			cl.sent = make(map[uint64]time.Time)
		}
		for v := range writeVariants {
			r := newRNG(o.Seed, 1<<34+uint64(c*len(writeVariants)+v))
			cycle, err := buildCycle(v, &r, c == 0)
			if err != nil {
				return nil, err
			}
			cl.cycles = append(cl.cycles, cycle)
		}
		w.clients = append(w.clients, cl)
	}
	return w, nil
}

func (w *writeMix) Classes() []string { return []string{"put", "facts", "read"} }

// step executes the client's next cycle op and checks it.
func (w *writeMix) step(cl *writeClient) opResult {
	op := &cl.cycles[cl.variant][cl.pos]
	base := w.st.Direct + "/v1/db/" + cl.db
	var class uint8
	ok := false
	switch op.kind {
	case kindPut, kindFacts:
		method, url := http.MethodPut, base
		class = classPut
		if op.kind == kindFacts {
			method, url, class = http.MethodPost, base+"/facts", classFacts
		}
		var resp putResponse
		t0 := time.Now()
		if err := postJSON(w.client, method, url, op.body, &resp); err == nil {
			ok = resp.Version == cl.version+1
			cl.version = resp.Version
			if cl.sent != nil {
				cl.sent[resp.Version] = t0
			}
		}
		cl.lastWrite = op
	case kindAsk:
		class = classRead
		var resp askResponse
		if err := postJSON(w.client, http.MethodPost, base+"/ask", op.body, &resp); err == nil {
			ok = resp.Answer == op.wantAsk && resp.Version == cl.version
		}
	case kindAnswers:
		class = classRead
		var resp answersResponse
		if err := postJSON(w.client, http.MethodPost, base+"/answers", op.body, &resp); err == nil {
			ok = resp.set() == op.wantSet && resp.Version == cl.version
		}
	}
	if cl.pos++; cl.pos == cycleLen {
		cl.pos = 0
		cl.variant = (cl.variant + 1) % len(writeVariants)
	}
	return result(class, ok)
}

func (w *writeMix) SetUp() error {
	if err := w.launch(); err != nil {
		return err
	}
	// One full rotation per client, all clients at once: every program
	// compiled once, WAL primed.
	err := warmUp(len(w.clients), len(w.clients), func(c int) error {
		cl := w.clients[c]
		cl.variant, cl.pos, cl.version, cl.lastWrite = 0, 0, 0, nil
		for i := 0; i < cycleLen*len(writeVariants); i++ {
			if r := w.step(cl); r.Failed > 0 {
				return fmt.Errorf("warm-up op %d of client %s failed", i, cl.db)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.wt, err = startWatcher(w.st.Direct, w.clients[0].db)
	return err
}

func (w *writeMix) Clients() []opFunc {
	ops := make([]opFunc, len(w.clients))
	for c, cl := range w.clients {
		cl := cl
		ops[c] = func() opResult { return w.step(cl) }
	}
	return ops
}

func (w *writeMix) Finish() (attempted, failed int, notes []string) {
	want := w.clients[0].lastWrite.watchState
	// The hub evaluates bumps on its own goroutine: give the last delta a
	// moment to arrive before comparing states.
	deadline := time.Now().Add(5 * time.Second)
	for !w.wt.stateIs(want) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	final := w.wt.stateIs(want)
	w.wt.stop()
	attempted = w.wt.frames + 1
	failed = w.wt.violations
	if !final {
		failed++
		notes = append(notes, "watch state after the last write differs from the oracle's answer set")
	}
	if w.wt.err != nil {
		failed++
		notes = append(notes, "watch stream: "+w.wt.err.Error())
	}
	if w.wt.violations > 0 {
		notes = append(notes, fmt.Sprintf("%d watch frames repeated, skipped or reordered a delta", w.wt.violations))
	}
	return attempted, failed, notes
}

func (w *writeMix) LayerExtras(m map[string]float64, scale float64) {
	var lat []float64
	for _, f := range w.wt.arrivals {
		if sent, ok := w.clients[0].sent[f.version]; ok {
			lat = append(lat, float64(f.at.Sub(sent).Nanoseconds())/1e6)
		}
	}
	m["watch.delta_p50_ms"] = pctOrZero(sortedCopy(lat), 50) * scale
	if after, err := scrape(w.st.Direct); err == nil {
		if queued := delta(w.wt.metricsAtStart, after, "funcdbd_watch_frames_total"); queued > 0 {
			m["watch.delivered_ratio"] = float64(w.wt.frames) / queued
		}
	}
}

func (w *writeMix) TearDown() error {
	if w.wt != nil {
		w.wt.stop()
		w.wt = nil
	}
	return w.httpBase.TearDown()
}

// watcher holds one live-query stream and replays its frames onto a local
// answer set, checking that every delta applies exactly once.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}
	// metricsAtStart is fdbd's /metrics just before subscribing.
	metricsAtStart map[string]float64

	mu    sync.Mutex
	state map[string]struct{}
	// Read after stop.
	frames     int // data frames received (init, delta, resync)
	violations int
	arrivals   []frameArrival
	err        error
}

type frameArrival struct {
	version uint64
	at      time.Time
}

func startWatcher(base, db string) (*watcher, error) {
	before, err := scrape(base)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	body := fmt.Sprintf(`{"query":"%s","depth":%d,"limit":%d}`, watchQuery, watchDepth, answersLimit)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/db/"+db+"/watch", strings.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	// Its own transport: the stream holds its connection for the whole run.
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("watch %s: status %d", db, resp.StatusCode)
	}
	wt := &watcher{cancel: cancel, done: make(chan struct{}), metricsAtStart: before}
	first := make(chan struct{})
	go func() {
		defer close(wt.done)
		defer resp.Body.Close()
		defer client.CloseIdleConnections()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		var lastVersion uint64
		for sc.Scan() {
			f, err := watch.DecodeFrame(sc.Bytes())
			if err != nil {
				wt.err = err
				return
			}
			at := time.Now()
			switch f.Type {
			case watch.FrameHeartbeat:
				continue
			case watch.FrameEnd:
				wt.err = fmt.Errorf("stream ended by the daemon: %s", f.Reason)
				return
			}
			wt.mu.Lock()
			wt.frames++
			wt.arrivals = append(wt.arrivals, frameArrival{f.Version, at})
			if f.Version <= lastVersion {
				wt.violations++
			}
			lastVersion = f.Version
			if f.Type == watch.FrameDelta {
				for _, t := range f.Add {
					k := tupleKey(t.Term, t.Args)
					if _, dup := wt.state[k]; dup {
						wt.violations++
					}
					wt.state[k] = struct{}{}
				}
				for _, t := range f.Del {
					k := tupleKey(t.Term, t.Args)
					if _, had := wt.state[k]; !had {
						wt.violations++
					}
					delete(wt.state, k)
				}
			} else {
				wt.state = make(map[string]struct{}, len(f.Add))
				for _, t := range f.Add {
					wt.state[tupleKey(t.Term, t.Args)] = struct{}{}
				}
			}
			wt.mu.Unlock()
			if f.Type == watch.FrameInit {
				close(first)
			}
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			wt.err = err
		}
	}()
	select {
	case <-first:
		return wt, nil
	case <-wt.done:
		cancel()
		return nil, fmt.Errorf("watch %s: stream closed before the init frame: %v", db, wt.err)
	}
}

// stateIs reports whether the replayed answer set equals want.
func (wt *watcher) stateIs(want map[string]struct{}) bool {
	wt.mu.Lock()
	defer wt.mu.Unlock()
	if len(wt.state) != len(want) {
		return false
	}
	for k := range want {
		if _, ok := wt.state[k]; !ok {
			return false
		}
	}
	return true
}

// stop cancels the stream and waits for the reader to exit.
func (wt *watcher) stop() {
	wt.cancel()
	<-wt.done
}

// ---- lib_ask ------------------------------------------------------------

// libBatch is how many asks one latency sample of lib_ask covers: a single
// hot ask (~0.3-3 us) is too short to time with the wall clock.
const libBatch = 1024

type libAsk struct {
	o     runOpts
	pool  []groundQuery
	snaps map[string]*core.Snapshot
}

func newLibAsk(o runOpts) (*libAsk, error) {
	orc, err := newOracle(catalog())
	if err != nil {
		return nil, err
	}
	pool, _, err := oracleHotPool(orc, o.Seed)
	if err != nil {
		return nil, err
	}
	return &libAsk{o: o, pool: pool}, nil
}

func (w *libAsk) Classes() []string                       { return []string{"batch"} }
func (w *libAsk) Stack() *stack                           { return nil }
func (w *libAsk) LayerExtras(map[string]float64, float64) {}
func (w *libAsk) TearDown() error                         { w.snaps = nil; return nil }
func (w *libAsk) Finish() (int, int, []string)            { return 0, 0, nil }

// SetUp opens and compiles the catalog, publishes the snapshots and
// prepares every pool text, so the timed phase runs on plan-cache hits.
func (w *libAsk) SetUp() error {
	ctx := context.Background()
	w.snaps = make(map[string]*core.Snapshot)
	for name, src := range catalog() {
		db, err := core.Open(src, core.Options{})
		if err != nil {
			return err
		}
		if w.snaps[name], err = db.Snapshot(); err != nil {
			return err
		}
	}
	for _, q := range w.pool {
		got, err := w.snaps[q.DB].Ask(ctx, q.Text)
		if err != nil || got != q.Truth {
			return fmt.Errorf("warm-up ask failed: %.80s", q.Text)
		}
	}
	return nil
}

func (w *libAsk) Clients() []opFunc {
	type entry struct {
		snap *core.Snapshot
		text string
		want bool
	}
	entries := make([]entry, len(w.pool))
	for i, q := range w.pool {
		entries[i] = entry{w.snaps[q.DB], q.Text, q.Truth}
	}
	ctx := context.Background()
	ops := make([]opFunc, w.o.Clients)
	for c := range ops {
		next := c * len(entries) / w.o.Clients
		ops[c] = func() opResult {
			r := opResult{Ops: libBatch}
			for i := 0; i < libBatch; i++ {
				e := &entries[next%len(entries)]
				next++
				if got, err := e.snap.Ask(ctx, e.text); err != nil || got != e.want {
					r.Failed++
				}
			}
			return r
		}
	}
	return ops
}
