// Package registry is a concurrent-safe, versioned catalog of named
// compiled databases — the serving substrate behind the fdbd daemon.
//
// The paper's central promise is that a finite specification answers
// queries about an infinite fixpoint "after the rules are forgotten"; the
// compiled artifact is therefore exactly the unit a server loads, names and
// hot-swaps. An Entry is either a full program (compiled by internal/core,
// with its graph/equational/temporal specifications built lazily on first
// query, race-free under the Database's internal lock) or a standalone
// specification document (package specio), which answers membership with
// the rules genuinely absent.
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
	"funcdb/internal/obs"
	"funcdb/internal/query"
	"funcdb/internal/specio"
	"funcdb/internal/symbols"
	"funcdb/internal/term"
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
	// KindSpec marks an entry loaded from a specio JSON document (no
	// rules available: membership only).
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

	db  *core.Database     // KindProgram
	st  *specio.Standalone // KindSpec
	doc *specio.Document   // KindSpec
}

// AnswerTuple is one ground answer: the rendered functional component
// (empty for purely relational answers) and the data constants.
type AnswerTuple struct {
	Term string   `json:"term,omitempty"`
	Args []string `json:"args,omitempty"`
}

// Database returns the compiled database of a program entry (nil for spec
// entries).
func (e *Entry) Database() *core.Database { return e.db }

// Document returns the loaded document of a spec entry (nil for program
// entries).
func (e *Entry) Document() *specio.Document { return e.doc }

// Ask answers a yes-no query, honoring ctx and the core query options.
// Program entries take surface syntax ("?- Even(4).") and evaluate on the
// database's immutable snapshot — lock-free, through the snapshot's
// compiled-plan cache. Spec entries take the ground-query syntax of
// specio.ParseGroundQuery ("Even(4)"), answered by the DFA walk, or by
// congruence closure under core.WithMethod(core.MethodEquational). An
// expired ctx yields an error matching core.ErrCanceled.
func (e *Entry) Ask(ctx context.Context, q string, opts ...core.Option) (bool, error) {
	switch e.Kind {
	case KindProgram:
		return e.db.Ask(ctx, q, opts...)
	case KindSpec:
		op := core.BuildOpts(opts...)
		pred, tm, args, err := e.st.ParseGroundQuery(q)
		if err != nil {
			return false, err
		}
		if op.Method == core.MethodEquational {
			return e.st.HasViaCongruence(pred, tm, args...), nil
		}
		return e.st.Has(pred, tm, args...)
	}
	return false, fmt.Errorf("registry: unknown entry kind %q", e.Kind)
}

// Prepare compiles a query against a program entry's current snapshot (a
// plan-cache hit when the shape was seen before). The returned plan can be
// executed many times without re-parsing; its Shape is the canonical cache
// key response caches should use. Spec entries have no compiled plans.
func (e *Entry) Prepare(ctx context.Context, q string) (*core.Plan, error) {
	if e.Kind != KindProgram {
		return nil, fmt.Errorf("registry: %q is a standalone specification; prepared plans need a program entry", e.Name)
	}
	return e.db.Prepare(ctx, q)
}

// Answers evaluates an open query and enumerates ground answers, honoring
// ctx and the core query options: core.WithDepth bounds the enumeration
// term depth, core.WithLimit stops after that many tuples (0 = no cap). It
// reports whether enumeration was truncated by the limit. Program entries
// evaluate on the database's immutable snapshot, and rendering goes through
// the Answers value itself (the terms may live in query-local scratch
// arenas the database never sees). Spec entries carry no rules and cannot
// evaluate open queries.
func (e *Entry) Answers(ctx context.Context, q string, opts ...core.Option) (tuples []AnswerTuple, truncated bool, err error) {
	if e.Kind != KindProgram {
		return nil, false, fmt.Errorf("registry: %q is a standalone specification; open queries need a program entry", e.Name)
	}
	ans, err := e.db.Answers(ctx, q, opts...)
	if err != nil {
		return nil, false, err
	}
	return enumerate(ctx, ans, core.BuildOpts(opts...))
}

// PlanAnswers is Entry.Answers for a query the caller already prepared: it
// executes the plan as prepared, with no second plan lookup, and enumerates
// the same way.
func PlanAnswers(ctx context.Context, p *core.Plan, opts ...core.Option) (tuples []AnswerTuple, truncated bool, err error) {
	ans, err := p.Answers(ctx, opts...)
	if err != nil {
		return nil, false, err
	}
	return enumerate(ctx, ans, core.BuildOpts(opts...))
}

func enumerate(ctx context.Context, ans *query.Answers, op core.Opts) (tuples []AnswerTuple, truncated bool, err error) {
	ectx, esp := obs.StartSpan(ctx, "enumerate")
	defer esp.End()
	err = ans.EnumerateContext(ectx, op.Depth, func(ft term.Term, args []symbols.ConstID) bool {
		if op.Limit > 0 && len(tuples) >= op.Limit {
			truncated = true
			return false
		}
		tu := AnswerTuple{}
		if ft != term.None {
			tu.Term = ans.CompactTermString(ft)
		}
		for _, c := range args {
			tu.Args = append(tu.Args, ans.ConstName(c))
		}
		tuples = append(tuples, tu)
		return true
	})
	if err != nil {
		return nil, false, err
	}
	return tuples, truncated, nil
}

// Explain justifies a ground query's verdict with the Link-rule trace.
func (e *Entry) Explain(q string) (string, error) {
	if e.Kind != KindProgram {
		return "", fmt.Errorf("registry: %q is a standalone specification; explain needs a program entry", e.Name)
	}
	return e.db.ExplainText(q)
}

// Stats returns the specification sizes of a program entry, forcing the
// graph specification on first use.
func (e *Entry) Stats() (core.Stats, error) {
	if e.Kind != KindProgram {
		return core.Stats{}, fmt.Errorf("registry: %q has no engine statistics", e.Name)
	}
	return e.db.Stats()
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

// buildSpec loads a specio document into an unpublished entry.
func (r *Registry) buildSpec(name string, doc *specio.Document, sourceBytes int) (*Entry, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("registry: invalid database name %q", name)
	}
	st, err := specio.Load(doc)
	if err != nil {
		return nil, fmt.Errorf("registry: load %q: %w", name, err)
	}
	return &Entry{Name: name, Kind: KindSpec, SourceBytes: sourceBytes, st: st, doc: doc}, nil
}

// PutProgram compiles .fdb source and publishes it under name, replacing
// any existing entry atomically (in-flight queries keep using the old
// entry; new requests see the new one).
func (r *Registry) PutProgram(name string, src []byte) (*Entry, error) {
	e, err := r.buildProgram(name, src)
	if err != nil {
		return nil, err
	}
	if err := r.publish(e, wire.OpPut, src); err != nil {
		return nil, err
	}
	return e, nil
}

// PutSpec parses a specio JSON document and publishes it under name.
func (r *Registry) PutSpec(name string, raw []byte) (*Entry, error) {
	doc, err := specio.Read(strings.NewReader(string(raw)))
	if err != nil {
		return nil, fmt.Errorf("registry: load %q: %w", name, err)
	}
	e, err := r.buildSpec(name, doc, len(raw))
	if err != nil {
		return nil, err
	}
	if err := r.publish(e, wire.OpPut, raw); err != nil {
		return nil, err
	}
	return e, nil
}

// ExtendFacts adds ground facts (surface syntax) to the program entry
// under name and publishes the extended database as a new version of the
// same name. Caches keyed on (name, version) therefore invalidate exactly
// as if the program had been re-uploaded; in-flight readers of the old
// entry share the underlying database and see the monotone extension.
func (r *Registry) ExtendFacts(name string, facts []byte) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.snap.Load().entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if old.Kind != KindProgram {
		return nil, fmt.Errorf("registry: %q is a standalone specification; facts need a program entry", name)
	}
	if err := old.db.Extend(string(facts)); err != nil {
		return nil, err
	}
	e := &Entry{Name: name, Kind: KindProgram, SourceBytes: old.SourceBytes + len(facts), db: old.db}
	// The facts are already applied in memory; if journaling refuses the
	// mutation the caller sees the error and no new version is published,
	// so a restart converges back to the last durable state.
	if err := r.publishLocked(e, wire.OpExtend, facts); err != nil {
		return nil, err
	}
	return e, nil
}

// Put sniffs the payload: a JSON object is a specification document,
// anything else is program source.
func (r *Registry) Put(name string, raw []byte) (*Entry, error) {
	if looksLikeJSON(raw) {
		return r.PutSpec(name, raw)
	}
	return r.PutProgram(name, raw)
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
func (r *Registry) publish(e *Entry, op wire.Op, payload []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.publishLocked(e, op, payload)
}

func (r *Registry) publishLocked(e *Entry, op wire.Op, payload []byte) error {
	v := r.versions[e.Name] + 1
	if r.obs != nil {
		if err := r.obs(wire.Mutation{Op: op, Name: e.Name, Version: v, Payload: payload}); err != nil {
			return fmt.Errorf("registry: journal %s %q: %w", op, e.Name, err)
		}
	}
	r.versions[e.Name] = v
	e.Version = v
	r.installLocked(e)
	return nil
}

// installLocked swaps in a snapshot carrying e; callers hold r.mu and have
// already assigned e.Version.
func (r *Registry) installLocked(e *Entry) {
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
	e.Version = version
	if version > r.versions[e.Name] {
		r.versions[e.Name] = version
	}
	r.installLocked(e)
}

// ApplyAt replays one journaled mutation, forcing the recorded version and
// bypassing the observer. Replaying the journal in commit order into the
// checkpointed state reproduces the pre-crash catalog exactly.
func (r *Registry) ApplyAt(m wire.Mutation) error {
	switch m.Op {
	case wire.OpPut:
		var e *Entry
		var err error
		if looksLikeJSON(m.Payload) {
			var doc *specio.Document
			doc, err = specio.Read(strings.NewReader(string(m.Payload)))
			if err == nil {
				e, err = r.buildSpec(m.Name, doc, len(m.Payload))
			}
		} else {
			e, err = r.buildProgram(m.Name, m.Payload)
		}
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
		e := &Entry{Name: m.Name, Kind: KindProgram, SourceBytes: old.SourceBytes + len(m.Payload), db: old.db}
		e.Version = m.Version
		if m.Version > r.versions[m.Name] {
			r.versions[m.Name] = m.Version
		}
		r.installLocked(e)
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
