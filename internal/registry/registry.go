// Package registry is a concurrent-safe, versioned catalog of named
// compiled databases — the serving substrate behind the fdbd daemon.
//
// The paper's central promise is that a finite specification answers
// queries about an infinite fixpoint "after the rules are forgotten"; the
// compiled artifact is therefore exactly the unit a server loads, names and
// hot-swaps. An Entry is either a full program (compiled by internal/core,
// with its graph/equational/temporal specifications built lazily on first
// query, race-free under the Database's internal lock) or a specification
// document (package specio), loaded as a snapshot with the rules genuinely
// absent. Both answer through the same snapshots and plans.
//
// The catalog itself is a copy-on-write snapshot behind an atomic pointer:
// readers resolve names lock-free on every request, writers clone the map,
// swap it atomically and bump the entry's version. A version never repeats
// for a name within one registry, which lets response caches key on
// (name, version) and survive hot reloads without invalidation scans.
package registry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"funcdb/internal/core"
	"funcdb/internal/query"
	"funcdb/internal/specio"
	"funcdb/internal/wire"
)

// ErrNotFound reports a mutation against a name absent from the catalog.
var ErrNotFound = errors.New("registry: no such database")

// ErrUnknownDatabase is ErrNotFound under the name the façade exports.
var ErrUnknownDatabase = ErrNotFound

// Kind discriminates what an Entry was loaded from.
type Kind string

const (
	// KindProgram marks an entry compiled from .fdb rule source.
	KindProgram Kind = "program"
	// KindSpec marks an entry loaded from a specio JSON document (no rules
	// available: ground and uniform queries only).
	KindSpec Kind = "spec"
)

// Entry is one immutable catalog slot: once published it is never modified,
// only replaced wholesale by a reload. All query methods are safe for
// concurrent use.
type Entry struct {
	// Name is the catalog key.
	Name string
	// Version counts loads of this name, starting at 1.
	Version uint64
	// Kind reports what the entry was loaded from.
	Kind Kind
	// SourceBytes is the size of the uploaded artifact.
	SourceBytes int

	db   *core.Database   // KindProgram
	snap *core.Snapshot   // KindSpec: the document's, for the entry's life
	doc  *specio.Document // KindSpec
}

// Database returns the compiled database of a program entry (nil for spec
// entries).
func (e *Entry) Database() *core.Database { return e.db }

// Document returns the loaded document of a spec entry (nil for program
// entries).
func (e *Entry) Document() *specio.Document { return e.doc }

// Snapshot returns the immutable snapshot the entry answers from: a program
// database's current one (built, and a "compile" span recorded on ctx's
// trace, on first use after a mutation), or the one its specification
// document was loaded into.
func (e *Entry) Snapshot(ctx context.Context) (*core.Snapshot, error) {
	if e.snap != nil {
		return e.snap, nil
	}
	return e.db.SnapshotContext(ctx)
}

// Ask answers a yes-no query in surface syntax ("?- Even(4)."), honoring ctx
// and the core query options: lock-free on the entry's snapshot, through its
// compiled-plan cache, as core.Snapshot.Ask answers. An expired ctx yields
// an error matching core.ErrCanceled.
func (e *Entry) Ask(ctx context.Context, q string, opts ...core.Option) (bool, error) {
	s, err := e.Snapshot(ctx)
	if err != nil {
		return false, err
	}
	return s.Ask(ctx, q, opts...)
}

// Prepare compiles a query against the entry's snapshot (a plan-cache hit
// when the shape was seen before). The returned plan can be executed many
// times without re-parsing; its Shape is the canonical cache key response
// caches should use.
func (e *Entry) Prepare(ctx context.Context, q string) (*core.Plan, error) {
	s, err := e.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	return s.Prepare(ctx, q)
}

// PrepareBytes is Prepare for a text in a buffer the caller reuses
// (core.Snapshot.PrepareBytes): it keeps nothing of q, and returns the text
// as a string of its own, the plan cache's on a hit.
func (e *Entry) PrepareBytes(ctx context.Context, q []byte) (*core.Plan, string, error) {
	s, err := e.Snapshot(ctx)
	if err != nil {
		return nil, string(q), err
	}
	return s.PrepareBytes(ctx, q)
}

// Answers evaluates an open query on the entry's snapshot and renders its
// ground answers (query.Answers.Render) to core.WithDepth, at most
// core.WithLimit of them (0 = no cap), honoring ctx. A spec entry answers
// uniform queries only (core.ErrNeedsRules).
func (e *Entry) Answers(ctx context.Context, q string, opts ...core.Option) (tuples []query.Tuple, truncated bool, err error) {
	s, err := e.Snapshot(ctx)
	if err != nil {
		return nil, false, err
	}
	op := core.BuildOpts(opts...)
	ans, err := s.AnswersOpts(ctx, q, op)
	if err != nil {
		return nil, false, err
	}
	return ans.Render(ctx, op.Depth, op.Limit)
}

// PlanAnswers is Entry.Answers for a query the caller already prepared: it
// executes the plan as prepared, with no second plan lookup, and renders
// the same way.
func PlanAnswers(ctx context.Context, p *core.Plan, opts ...core.Option) (tuples []query.Tuple, truncated bool, err error) {
	op := core.BuildOpts(opts...)
	ans, err := p.AnswersOpts(ctx, op)
	if err != nil {
		return nil, false, err
	}
	return ans.Render(ctx, op.Depth, op.Limit)
}

// Explain justifies a ground query's verdict with the Link-rule trace,
// building a program's graph specification under ctx when it has to.
func (e *Entry) Explain(ctx context.Context, q string) (string, error) {
	if e.db == nil {
		return "", fmt.Errorf("registry: %q is a specification document; explain needs a program entry", e.Name)
	}
	return e.db.ExplainText(ctx, q)
}

// Stats returns the entry's specification sizes: a program's forces its
// graph specification on first use, under ctx, and reports the engine's work
// too.
func (e *Entry) Stats(ctx context.Context) (core.Stats, error) {
	if e.db == nil {
		return e.snap.Stats(), nil
	}
	return e.db.Stats(ctx)
}

// Observer is called for every mutation, after validation but before the
// new catalog snapshot becomes visible, under the writer lock — so calls
// arrive in exactly the commit order and a returned error aborts the
// mutation (write-ahead semantics). Observers must not call back into the
// registry.
type Observer func(wire.Mutation) error

// Notifier is called after a catalog change has become visible, still
// under the writer lock, so calls arrive in exactly the commit order:
// version is the installed entry's version, or 0 when name was removed.
// Unlike Observer it cannot veto anything and it fires on every install
// path — including replays, restores and local drops that bypass the
// observer — which is what lets a watch hub on a replica see the same
// version bumps a primary's hub does. Notifiers must only enqueue and
// return: no blocking, no calls back into the registry.
type Notifier func(name string, version uint64)

// snapshot is the immutable catalog state; Registry swaps whole snapshots.
type snapshot struct {
	entries map[string]*Entry
}

// Registry is the catalog. The zero value is not usable; call New.
type Registry struct {
	// mu serializes writers only; readers go through the atomic snapshot.
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]
	// versions outlives entry removal so a name re-added after Remove
	// still never repeats a version.
	versions map[string]uint64
	opts     core.Options
	obs      Observer
	notify   Notifier
}

// SetObserver installs the mutation observer (nil disables). It is meant
// to be set once, before the registry starts taking traffic.
func (r *Registry) SetObserver(obs Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = obs
}

// SetNotifier installs the post-commit change notifier (nil disables). It
// is meant to be set once, before the registry starts taking traffic.
func (r *Registry) SetNotifier(n Notifier) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notify = n
}

// New returns an empty registry; opts configure compilation of program
// entries.
func New(opts core.Options) *Registry {
	r := &Registry{versions: make(map[string]uint64), opts: opts}
	r.snap.Store(&snapshot{entries: map[string]*Entry{}})
	return r
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// ValidName reports whether name is an acceptable catalog key.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Get resolves a name lock-free against the current snapshot.
func (r *Registry) Get(name string) (*Entry, bool) {
	e, ok := r.snap.Load().entries[name]
	return e, ok
}

// Len returns the number of entries in the current snapshot.
func (r *Registry) Len() int { return len(r.snap.Load().entries) }

// List returns the current entries sorted by name.
func (r *Registry) List() []*Entry {
	snap := r.snap.Load()
	out := make([]*Entry, 0, len(snap.entries))
	for _, e := range snap.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// buildProgram compiles .fdb source into an unpublished entry.
func (r *Registry) buildProgram(name string, src []byte) (*Entry, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("registry: invalid database name %q", name)
	}
	db, err := core.Open(string(src), r.opts)
	if err != nil {
		return nil, fmt.Errorf("registry: compile %q: %w", name, err)
	}
	return &Entry{Name: name, Kind: KindProgram, SourceBytes: len(src), db: db}, nil
}

// readSpec parses a specio JSON document and loads it into an unpublished
// entry.
func (r *Registry) readSpec(name string, raw []byte) (*Entry, error) {
	doc, err := specio.Read(strings.NewReader(string(raw)))
	if err != nil {
		return nil, fmt.Errorf("registry: load %q: %w", name, err)
	}
	return r.buildSpec(name, doc, len(raw))
}

// buildSpec loads a specio document into an unpublished entry.
func (r *Registry) buildSpec(name string, doc *specio.Document, sourceBytes int) (*Entry, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("registry: invalid database name %q", name)
	}
	snap, err := core.LoadSpec(doc)
	if err != nil {
		return nil, fmt.Errorf("registry: load %q: %w", name, err)
	}
	return &Entry{Name: name, Kind: KindSpec, SourceBytes: sourceBytes, snap: snap, doc: doc}, nil
}

// PutProgram compiles .fdb source and publishes it under name, replacing
// any existing entry atomically (in-flight queries keep using the old
// entry; new requests see the new one).
func (r *Registry) PutProgram(name string, src []byte) (*Entry, error) {
	return r.put(context.Background(), name, src, r.buildProgram)
}

// PutSpec parses a specio JSON document and publishes it under name.
func (r *Registry) PutSpec(name string, raw []byte) (*Entry, error) {
	return r.put(context.Background(), name, raw, r.readSpec)
}

// put builds an entry from raw and publishes it, unless ctx has ended by
// the commit point (see publish).
func (r *Registry) put(ctx context.Context, name string, raw []byte, build func(string, []byte) (*Entry, error)) (*Entry, error) {
	e, err := build(name, raw)
	if err != nil {
		return nil, err
	}
	if err := r.publish(ctx, e, wire.OpPut, raw); err != nil {
		return nil, err
	}
	return e, nil
}

// ExtendFacts is ExtendFactsContext with no deadline.
func (r *Registry) ExtendFacts(name string, facts []byte) (*Entry, error) {
	return r.ExtendFactsContext(context.Background(), name, facts)
}

// ExtendFactsContext adds ground facts (surface syntax) to the program entry
// under name and publishes the extended database as a new version of the
// same name. Caches keyed on (name, version) therefore invalidate exactly
// as if the program had been re-uploaded; in-flight readers of the old
// entry share the underlying database and see the monotone extension. The
// re-solve runs under ctx, and facts whose ctx has ended by the commit point
// are rolled back: never journaled, never served.
func (r *Registry) ExtendFactsContext(ctx context.Context, name string, facts []byte) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.snap.Load().entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if old.Kind != KindProgram {
		return nil, fmt.Errorf("registry: %q is a specification document; facts need a program entry", name)
	}
	// The facts are journaled after the engine has taken them and before
	// the database publishes them: a refused journal write rolls them back,
	// and readers keep the old snapshot throughout.
	e := &Entry{Name: name, Kind: KindProgram, SourceBytes: old.SourceBytes + len(facts), db: old.db}
	v := r.versions[name] + 1
	if err := old.db.ExtendCommit(ctx, string(facts), func() error { return r.commitLocked(ctx, wire.OpExtend, name, v, facts) }); err != nil {
		return nil, err
	}
	r.installAtLocked(e, v)
	return e, nil
}

// Put sniffs the payload — a JSON object is a specification document,
// anything else is program source — and publishes it under name unless ctx
// has ended by the commit point.
func (r *Registry) Put(ctx context.Context, name string, raw []byte) (*Entry, error) {
	return r.put(ctx, name, raw, r.builderFor(raw))
}

// builderFor sniffs an upload for the builder that makes its entry.
func (r *Registry) builderFor(raw []byte) func(name string, raw []byte) (*Entry, error) {
	if looksLikeJSON(raw) {
		return r.readSpec
	}
	return r.buildProgram
}

func looksLikeJSON(raw []byte) bool {
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}

// publish installs e in a fresh copy-on-write snapshot under the writer
// lock, assigning the next version for its name and journaling the
// mutation through the observer first (write-ahead order).
func (r *Registry) publish(ctx context.Context, e *Entry, op wire.Op, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.versions[e.Name] + 1
	if err := r.commitLocked(ctx, op, e.Name, v, payload); err != nil {
		return err
	}
	r.installAtLocked(e, v)
	return nil
}

// commitLocked is the commit point of a write: the mutation that would make
// version v of name is refused if ctx has ended, and is otherwise handed to
// the observer, which may refuse it too. A write that passes is published
// and acknowledged, however late; one refused here is never published.
func (r *Registry) commitLocked(ctx context.Context, op wire.Op, name string, v uint64, payload []byte) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("registry: %s %q not committed: %w", op, name, err)
	}
	if r.obs == nil {
		return nil
	}
	if err := r.obs(wire.Mutation{Op: op, Name: name, Version: v, Payload: payload}); err != nil {
		return fmt.Errorf("registry: journal %s %q: %w", op, name, err)
	}
	return nil
}

// installAtLocked swaps in a snapshot carrying e at exactly version;
// callers hold r.mu.
func (r *Registry) installAtLocked(e *Entry, version uint64) {
	e.Version = version
	if version > r.versions[e.Name] {
		r.versions[e.Name] = version
	}
	old := r.snap.Load()
	next := &snapshot{entries: make(map[string]*Entry, len(old.entries)+1)}
	for k, v := range old.entries {
		next.entries[k] = v
	}
	next.entries[e.Name] = e
	r.snap.Store(next)
	if r.notify != nil {
		r.notify(e.Name, e.Version)
	}
}

// Remove deletes name from the catalog, reporting whether it was present.
// The version counter is retained so a later re-add does not reuse
// versions. A journaling failure keeps the entry and surfaces the error.
func (r *Registry) Remove(name string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.snap.Load().entries[name]; !ok {
		return false, nil
	}
	if r.obs != nil {
		if err := r.obs(wire.Mutation{Op: wire.OpDelete, Name: name}); err != nil {
			return false, fmt.Errorf("registry: journal delete %q: %w", name, err)
		}
	}
	r.removeLocked(name)
	return true, nil
}

// DropLocal removes name from the in-memory catalog without consulting
// the observer: no journal record is written and absence is not an error.
// Replication re-bootstrap uses it to retire entries a newer primary
// snapshot no longer carries — the primary's journal is the authority
// there, so journaling the drop locally would fork history.
func (r *Registry) DropLocal(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.snap.Load().entries[name]; !ok {
		return false
	}
	r.removeLocked(name)
	return true
}

func (r *Registry) removeLocked(name string) {
	old := r.snap.Load()
	next := &snapshot{entries: make(map[string]*Entry, len(old.entries))}
	for k, v := range old.entries {
		if k != name {
			next.entries[k] = v
		}
	}
	r.snap.Store(next)
	if r.notify != nil {
		r.notify(name, 0)
	}
}

// Capture runs f with a point-in-time view of the catalog while holding
// the writer lock: the entries sorted by name and a copy of the version
// counters (including counters of deleted names). No mutation — and, in
// particular, no observer call — can interleave with f, which is what lets
// a checkpointer pair the captured state with an exact log position. Keep
// f short; it blocks all writers.
func (r *Registry) Capture(f func(entries []*Entry, versions map[string]uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := r.snap.Load()
	entries := make([]*Entry, 0, len(snap.entries))
	for _, e := range snap.entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	versions := make(map[string]uint64, len(r.versions))
	for k, v := range r.versions {
		versions[k] = v
	}
	f(entries, versions)
}

// SeedVersions raises the version counters to at least the given values.
// Recovery uses it to restore counters of names that were deleted before
// the checkpoint, so a re-created name still never repeats a version.
func (r *Registry) SeedVersions(versions map[string]uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range versions {
		if v > r.versions[k] {
			r.versions[k] = v
		}
	}
}

// RestoreProgram recompiles checkpointed program source and installs it at
// exactly the recorded version, bypassing the observer. The checkpointed
// text is the formatter's rendering, not the original upload, so the
// original upload size is restored explicitly. Recovery only.
func (r *Registry) RestoreProgram(name string, src []byte, sourceBytes int, version uint64) (*Entry, error) {
	e, err := r.buildProgram(name, src)
	if err != nil {
		return nil, err
	}
	e.SourceBytes = sourceBytes
	r.installAt(e, version)
	return e, nil
}

// RestoreSpecDoc installs an already-decoded specification document at
// exactly the recorded version, bypassing the observer. Recovery only.
func (r *Registry) RestoreSpecDoc(name string, doc *specio.Document, sourceBytes int, version uint64) (*Entry, error) {
	e, err := r.buildSpec(name, doc, sourceBytes)
	if err != nil {
		return nil, err
	}
	r.installAt(e, version)
	return e, nil
}

func (r *Registry) installAt(e *Entry, version uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.installAtLocked(e, version)
}

// ApplyAt replays one journaled mutation, forcing the recorded version and
// bypassing the observer. Replaying the journal in commit order into the
// checkpointed state reproduces the pre-crash catalog exactly.
func (r *Registry) ApplyAt(m wire.Mutation) error {
	switch m.Op {
	case wire.OpPut:
		e, err := r.builderFor(m.Payload)(m.Name, m.Payload)
		if err != nil {
			return err
		}
		r.installAt(e, m.Version)
		return nil
	case wire.OpExtend:
		r.mu.Lock()
		defer r.mu.Unlock()
		old, ok := r.snap.Load().entries[m.Name]
		if !ok {
			return fmt.Errorf("%w: %q", ErrNotFound, m.Name)
		}
		if old.Kind != KindProgram {
			return fmt.Errorf("registry: extend replay against non-program %q", m.Name)
		}
		if err := old.db.Extend(string(m.Payload)); err != nil {
			return err
		}
		r.installAtLocked(&Entry{Name: m.Name, Kind: KindProgram, SourceBytes: old.SourceBytes + len(m.Payload), db: old.db}, m.Version)
		return nil
	case wire.OpDelete:
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.snap.Load().entries[m.Name]; !ok {
			return fmt.Errorf("%w: %q", ErrNotFound, m.Name)
		}
		r.removeLocked(m.Name)
		return nil
	}
	return fmt.Errorf("registry: unknown mutation op %d", m.Op)
}

// LoadDir preloads every *.fdb (program) and *.json (spec document) file
// in dir, named after the file without its extension. It stops at the
// first failing file.
func (r *Registry) LoadDir(dir string) (int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return 0, err
	}
	sort.Strings(names)
	n := 0
	for _, path := range names {
		ext := filepath.Ext(path)
		if ext != ".fdb" && ext != ".json" {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return n, err
		}
		name := strings.TrimSuffix(filepath.Base(path), ext)
		if ext == ".fdb" {
			_, err = r.PutProgram(name, raw)
		} else {
			_, err = r.PutSpec(name, raw)
		}
		if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
