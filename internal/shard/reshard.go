package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"funcdb/internal/api"
	"funcdb/internal/wire"
)

// Live resharding. Moving a database between shard groups must never lose
// a committed write and must keep readers served throughout; only writers
// may see brief, retryable 409s. The protocol:
//
//  1. Export the database from the source primary (GET /v1/db/{n}/export).
//     The export carries an LSN read before the entry, so the WAL tail
//     that follows can only re-apply mutations the export already folded
//     in — harmless under the registry's set semantics — never miss one.
//  2. PUT the exported source to the target primary, then tail the source
//     group's WAL from LSN+1, re-applying this database's mutations to the
//     target through its public API, until the stream reaches its tail.
//  3. Freeze: install shard-map v+1 with the database in Frozen on every
//     router, each with ?drain=<db> so the call returns only after that
//     router's in-flight writes for the database have finished. From this
//     point no new source-side write for the database can commit through
//     a router.
//  4. Read the source primary's LSN — the watermark — and keep tailing
//     until every mutation at or below it has been applied to the target.
//  5. Flip: install v+2 with Overrides[db]=target and the freeze lifted.
//     Routers send new writes (and reads, and watch streams) to the
//     target group. The source copy is left in place for operator-paced
//     deletion; routers never route to it again.
//
// If anything fails after the freeze, the orchestrator rolls back by
// installing a map that lifts the freeze with ownership unchanged, so a
// failed reshard degrades to a brief write stall, not an outage.

// ReshardOptions configures one Reshard run.
type ReshardOptions struct {
	// DB is the database to move; TargetGroup the destination group name.
	DB, TargetGroup string

	// Routers are the base URLs of every fdbrouter instance. Shard-map
	// updates are pushed to all of them; the current map is fetched from
	// the first that answers.
	Routers []string

	// HTTP is the client for every call; nil uses the process-wide default.
	// Control-plane calls are bounded by controlTimeout each, the WAL tail
	// only by the run's context.
	HTTP *api.Client

	// TailTimeout bounds the post-freeze catch-up (step 4). Zero means
	// 30s. If the watermark is not reached in time the reshard rolls
	// back.
	TailTimeout time.Duration

	// DrainTimeout is passed to each router's ?drain call. Zero means the
	// router's default.
	DrainTimeout time.Duration

	// Logf receives progress notices; nil discards them.
	Logf func(format string, args ...any)
}

// ReshardResult reports what a completed Reshard did.
type ReshardResult struct {
	// From and To are the source and destination group names.
	From, To string
	// ExportLSN is the WAL position the snapshot captured; Watermark the
	// position the catch-up tail had to reach after the freeze.
	ExportLSN, Watermark uint64
	// Replayed counts WAL mutations re-applied to the target.
	Replayed int
	// Map is the final installed shard map.
	Map *Map
}

// Reshard moves one database to another shard group, live. It returns the
// final shard map on success; on failure after the freeze point it rolls
// the freeze back before returning the error.
func Reshard(ctx context.Context, opts ReshardOptions) (*ReshardResult, error) {
	r, err := newResharder(opts)
	if err != nil {
		return nil, err
	}
	return r.run(ctx)
}

// controlTimeout bounds one control-plane call (export, install, map push,
// replayed mutation).
const controlTimeout = 10 * time.Second

type resharder struct {
	opts ReshardOptions
	logf func(string, ...any)

	m      *Map
	source *Group
	target *Group
}

func newResharder(opts ReshardOptions) (*resharder, error) {
	if opts.DB == "" || opts.TargetGroup == "" {
		return nil, errors.New("reshard: database and target group are required")
	}
	if len(opts.Routers) == 0 {
		return nil, errors.New("reshard: at least one router URL is required")
	}
	if opts.TailTimeout <= 0 {
		opts.TailTimeout = 30 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &resharder{opts: opts, logf: logf}, nil
}

func (r *resharder) run(ctx context.Context) (*ReshardResult, error) {
	if err := r.loadMap(ctx); err != nil {
		return nil, err
	}
	src, err := r.m.Owner(r.opts.DB)
	if err != nil {
		return nil, fmt.Errorf("reshard: %w", err)
	}
	tgt, ok := r.m.GroupNamed(r.opts.TargetGroup)
	if !ok {
		return nil, fmt.Errorf("reshard: no group %q in shard map v%d", r.opts.TargetGroup, r.m.Version)
	}
	if src.Name == tgt.Name {
		return nil, fmt.Errorf("reshard: %q already lives on group %q", r.opts.DB, src.Name)
	}
	if r.m.IsFrozen(r.opts.DB) {
		return nil, fmt.Errorf("reshard: %q is frozen in shard map v%d — another reshard in progress?", r.opts.DB, r.m.Version)
	}
	r.source, r.target = src, tgt
	r.logf("reshard: moving %q from group %s to group %s (map v%d)",
		r.opts.DB, src.Name, tgt.Name, r.m.Version)

	// Step 1+2: snapshot-ship, then open the WAL tail and drain it to the
	// stream's current head before freezing anything.
	exp, err := r.export(ctx)
	if err != nil {
		return nil, err
	}
	if err := r.install(ctx, exp); err != nil {
		return nil, err
	}
	tailCtx, cancelTail := context.WithCancel(ctx)
	defer cancelTail()
	tail, err := r.openTail(tailCtx, exp.LSN+1)
	if err != nil {
		return nil, err
	}
	defer tail.Close()
	replayed, err := tail.drainToHead(ctx, r)
	if err != nil {
		return nil, fmt.Errorf("reshard: pre-freeze catch-up: %w", err)
	}
	r.logf("reshard: pre-copy done at lsn %d (%d mutations replayed)", tail.seen, replayed)

	// Step 3: freeze writes on every router, draining in-flight ones.
	frozen := r.frozenMap()
	if err := r.pushMap(ctx, frozen, true); err != nil {
		return nil, fmt.Errorf("reshard: freeze: %w", err)
	}
	r.m = frozen

	// Steps 4–5 can fail after the freeze; roll the freeze back if so.
	res, err := r.cutOver(ctx, exp, tail, replayed)
	if err != nil {
		r.rollback(err)
		return nil, err
	}
	return res, nil
}

// cutOver runs the post-freeze half: reach the watermark, flip ownership.
func (r *resharder) cutOver(ctx context.Context, exp *exportDoc, tail *walTail, replayed int) (*ReshardResult, error) {
	watermark, err := r.sourceLSN(ctx)
	if err != nil {
		return nil, fmt.Errorf("read watermark: %w", err)
	}
	r.logf("reshard: frozen; catch-up watermark is lsn %d", watermark)
	wctx, cancel := context.WithTimeout(ctx, r.opts.TailTimeout)
	defer cancel()
	n, err := tail.drainToLSN(wctx, r, watermark)
	replayed += n
	if err != nil {
		return nil, fmt.Errorf("catch-up to lsn %d: %w", watermark, err)
	}

	final := r.flippedMap()
	if err := r.pushMap(ctx, final, false); err != nil {
		return nil, fmt.Errorf("flip: %w", err)
	}
	r.m = final
	r.logf("reshard: done — %q now owned by group %s (map v%d)",
		r.opts.DB, r.target.Name, final.Version)
	return &ReshardResult{
		From: r.source.Name, To: r.target.Name,
		ExportLSN: exp.LSN, Watermark: watermark,
		Replayed: replayed, Map: final,
	}, nil
}

// rollback lifts the freeze with ownership unchanged. Best-effort: run
// under a fresh context so cancellation of the main one cannot strand the
// catalog frozen.
func (r *resharder) rollback(cause error) {
	r.logf("reshard: failed after freeze (%v); rolling back", cause)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	undo := r.m.Clone()
	undo.Version++
	undo.Frozen = without(undo.Frozen, r.opts.DB)
	if err := r.pushMap(ctx, undo, false); err != nil {
		r.logf("reshard: ROLLBACK FAILED, %q may be stuck frozen: %v", r.opts.DB, err)
	}
}

// frozenMap is the current map plus the moving database in Frozen.
func (r *resharder) frozenMap() *Map {
	m := r.m.Clone()
	m.Version++
	m.Frozen = append(without(m.Frozen, r.opts.DB), r.opts.DB)
	return m
}

// flippedMap is the frozen map with ownership pinned to the target and the
// freeze lifted.
func (r *resharder) flippedMap() *Map {
	m := r.m.Clone()
	m.Version++
	m.Frozen = without(m.Frozen, r.opts.DB)
	if m.Overrides == nil {
		m.Overrides = make(map[string]string)
	}
	m.Overrides[r.opts.DB] = r.target.Name
	return m
}

func without(ss []string, drop string) []string {
	out := ss[:0:0]
	for _, s := range ss {
		if s != drop {
			out = append(out, s)
		}
	}
	return out
}

// --- control-plane HTTP ---

// call performs one control-plane request and decodes a JSON answer into out
// when out is not nil. A refusal comes back as the *api.Error it was.
func (r *resharder) call(ctx context.Context, rq api.Request, out any) error {
	ctx, cancel := context.WithTimeout(ctx, controlTimeout)
	defer cancel()
	raw, err := r.opts.HTTP.Do(ctx, rq)
	if err == nil && out != nil {
		err = json.Unmarshal(raw, out)
	}
	return err
}

func (r *resharder) loadMap(ctx context.Context) error {
	var lastErr error
	for _, base := range r.opts.Routers {
		var raw json.RawMessage
		err := r.call(ctx, api.Request{Method: http.MethodGet, URL: base + "/v1/shardmap"}, &raw)
		if err != nil {
			lastErr = fmt.Errorf("GET %s/v1/shardmap: %s", base, api.Detail(err))
			continue
		}
		m, err := DecodeMap(raw)
		if err != nil {
			lastErr = fmt.Errorf("shard map from %s: %w", base, err)
			continue
		}
		r.m = m
		return nil
	}
	return fmt.Errorf("reshard: no router produced a shard map: %w", lastErr)
}

// pushMap installs m on every router. All must accept: a router left on
// the old map would keep routing writes to the old owner. drain adds
// ?drain=<db> so each router finishes in-flight writes before answering.
func (r *resharder) pushMap(ctx context.Context, m *Map, drain bool) error {
	raw, err := EncodeMap(m)
	if err != nil {
		return err
	}
	for _, base := range r.opts.Routers {
		url := base + "/v1/shardmap"
		if drain {
			url += "?drain=" + r.opts.DB
			if r.opts.DrainTimeout > 0 {
				url += "&drain_timeout=" + r.opts.DrainTimeout.String()
			}
		}
		err := r.call(ctx, api.Request{Method: http.MethodPut, URL: url, Body: raw, ContentType: api.ContentJSON}, nil)
		if err != nil {
			return fmt.Errorf("router %s rejected map v%d: %s", base, m.Version, api.Detail(err))
		}
	}
	return nil
}

type exportDoc struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Version uint64 `json:"version"`
	LSN     uint64 `json:"lsn"`
	Source  string `json:"source"`
}

func (r *resharder) export(ctx context.Context) (*exportDoc, error) {
	var exp exportDoc
	err := r.call(ctx, api.Request{Method: http.MethodGet,
		URL: r.source.Primary + "/v1/db/" + r.opts.DB + "/export"}, &exp)
	if err != nil {
		return nil, fmt.Errorf("reshard: export from %s: %s", r.source.Name, api.Detail(err))
	}
	r.logf("reshard: exported %q (kind %s, version %d) at lsn %d",
		exp.Name, exp.Kind, exp.Version, exp.LSN)
	return &exp, nil
}

// install publishes the exported source on the target primary.
func (r *resharder) install(ctx context.Context, exp *exportDoc) error {
	err := r.call(ctx, api.Request{Method: http.MethodPut,
		URL: r.target.Primary + "/v1/db/" + r.opts.DB, Body: []byte(exp.Source)}, nil)
	if err != nil {
		return fmt.Errorf("reshard: install on %s: %s", r.target.Name, api.Detail(err))
	}
	return nil
}

func (r *resharder) sourceLSN(ctx context.Context) (uint64, error) {
	var out struct {
		LSN uint64 `json:"lsn"`
	}
	err := r.call(ctx, api.Request{Method: http.MethodGet, URL: r.source.Primary + "/v1/repl/lsn"}, &out)
	return out.LSN, err
}

// apply re-executes one source-side mutation against the target primary
// through its public API. The target assigns its own versions and LSNs;
// only the catalog contents are replicated.
func (r *resharder) apply(ctx context.Context, m wire.Mutation) error {
	rq := api.Request{URL: r.target.Primary + "/v1/db/" + r.opts.DB}
	switch m.Op {
	case wire.OpPut:
		rq.Method, rq.Body = http.MethodPut, m.Payload
	case wire.OpExtend:
		body, err := json.Marshal(map[string]string{"facts": string(m.Payload)})
		if err != nil {
			return err
		}
		rq.Method, rq.URL, rq.Body, rq.ContentType = http.MethodPost, rq.URL+"/facts", body, api.ContentJSON
	case wire.OpDelete:
		rq.Method = http.MethodDelete
	default:
		return fmt.Errorf("unknown mutation op %d", m.Op)
	}
	err := r.call(ctx, rq, nil)
	var e *api.Error
	if m.Op == wire.OpDelete && errors.As(err, &e) && e.Status == http.StatusNotFound {
		// Deleting the database mid-move is legal; the reshard then moves
		// an absent database, which is still a correct outcome.
		return nil
	}
	return err
}

// --- WAL tail ---

// walTail is one long-lived GET /v1/repl/wal stream from the source
// primary, decoded frame by frame.
type walTail struct {
	resp *http.Response
	seen uint64 // highest mutation LSN consumed
	head uint64 // primary's LastLSN as of the latest frame
}

func (r *resharder) openTail(ctx context.Context, from uint64) (*walTail, error) {
	resp, err := r.opts.HTTP.Stream(ctx, api.Request{Method: http.MethodGet,
		URL: fmt.Sprintf("%s/v1/repl/wal?from=%d", r.source.Primary, from)})
	if err != nil {
		return nil, fmt.Errorf("reshard: WAL tail from %s: %s", r.source.Name, api.Detail(err))
	}
	return &walTail{resp: resp, seen: from - 1}, nil
}

func (t *walTail) Close() { t.resp.Body.Close() }

// next reads one frame, folding mutations for the moving database into the
// target via r.apply. It returns how many mutations it applied (0 or 1)
// and whether the frame was a heartbeat.
func (t *walTail) next(ctx context.Context, r *resharder) (applied int, heartbeat bool, err error) {
	rec, err := wire.ReadRecord(t.resp.Body)
	if err != nil {
		return 0, false, fmt.Errorf("WAL stream read: %w", err)
	}
	f, err := wire.DecodeFrame(rec)
	if err != nil {
		return 0, false, err
	}
	if f.PrimaryLast > t.head {
		t.head = f.PrimaryLast
	}
	if f.Kind != wire.FrameMutation {
		return 0, true, nil
	}
	lsn, m, err := wire.DecodeMutation(f.Record)
	if err != nil {
		return 0, false, err
	}
	t.seen = lsn
	if m.Name != r.opts.DB {
		return 0, false, nil
	}
	if err := r.apply(ctx, m); err != nil {
		return 0, false, fmt.Errorf("replay lsn %d (%v %s): %w", lsn, m.Op, m.Name, err)
	}
	return 1, false, nil
}

// drainToHead consumes the stream until it reaches the primary's current
// tail — signalled by a heartbeat, or by the consumed LSN catching the
// head position frames advertise.
func (t *walTail) drainToHead(ctx context.Context, r *resharder) (applied int, err error) {
	for {
		n, hb, err := t.next(ctx, r)
		applied += n
		if err != nil {
			return applied, err
		}
		if hb || t.seen >= t.head {
			return applied, nil
		}
	}
}

// drainToLSN consumes the stream until every mutation at or below
// watermark has been seen (and, for the moving database, applied).
func (t *walTail) drainToLSN(ctx context.Context, r *resharder, watermark uint64) (applied int, err error) {
	for t.seen < watermark {
		if err := ctx.Err(); err != nil {
			return applied, err
		}
		n, _, err := t.next(ctx, r)
		applied += n
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}
