// Package shard places databases onto shard groups and routes requests to
// them. The placement primitive is a consistent-hash ring with virtual
// nodes: each group claims VNodes points on a 64-bit circle and a database
// name is owned by the group claiming the first point at or after the
// name's hash. Adding or removing one group therefore moves only the keys
// that hashed into its arcs — roughly 1/len(groups) of the catalog — which
// is what makes resharding cheap: a database moves as a compact relational
// specification (the exported entry plus its WAL tail), never as
// materialized answers.
//
// A shard Map is versioned and immutable once built; Overrides pin
// individual databases to explicit groups (the durable record of completed
// reshards) and Frozen marks databases whose writes are briefly refused
// while a reshard drains their WAL tail.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// DefaultVNodes is the virtual-node count per group when a map does not
// set one. 512 points per group keeps the expected per-group load within a
// few percent of uniform (coefficient of variation ~1/sqrt(vnodes) ≈ 4%)
// for realistic group counts, at a ring cost of ~8KB per group.
const DefaultVNodes = 512

// Group is one shard: a primary daemon and any number of read replicas.
type Group struct {
	// Name identifies the group in maps, metrics and reshard plans.
	Name string `json:"name"`
	// Primary is the base URL of the group's writable daemon.
	Primary string `json:"primary"`
	// Replicas are base URLs of the group's read replicas.
	Replicas []string `json:"replicas,omitempty"`

	// What the router would otherwise derive from Endpoints on every request,
	// built by Map.Ring: each endpoint's base URL with the trailing slash
	// trimmed, and the name of the router's forward-attempt span for it.
	urls, spans []string
}

// Endpoints returns every base URL in the group, primary first.
func (g *Group) Endpoints() []string {
	eps := make([]string, 0, 1+len(g.Replicas))
	eps = append(eps, g.Primary)
	eps = append(eps, g.Replicas...)
	return eps
}

// Map is one versioned placement of database names onto groups. Build the
// ring with Ring (or let Owner build it lazily); a Map is immutable after
// that and safe for concurrent readers.
type Map struct {
	// Version orders maps; a router only installs a strictly newer map.
	Version uint64 `json:"version"`
	// VNodes is the virtual-node count per group; zero means DefaultVNodes.
	VNodes int `json:"vnodes,omitempty"`
	// Groups lists the shard groups. Order is irrelevant to placement
	// (points are claimed by hashed name, not index).
	Groups []Group `json:"groups"`
	// Overrides pins database names to explicit group names, bypassing the
	// ring. A completed reshard records its move here so the database stays
	// put even as the ring's arcs shift under later group changes.
	Overrides map[string]string `json:"overrides,omitempty"`
	// Frozen lists databases whose writes are refused with a retryable 409
	// while a reshard drains their WAL tail. Reads keep serving.
	Frozen []string `json:"frozen,omitempty"`

	ring *ring  // built lazily by Owner/Ring
	via  string // "v<Version>", the X-Funcdb-Router header value; built with ring
}

// ring is the materialized consistent-hash circle: sorted point hashes and
// the group index claiming each point.
type ring struct {
	points []uint64
	owner  []int // index into Map.Groups, parallel to points
}

// hashKey hashes a string to a point on the circle. Raw FNV clusters
// badly on short, similar strings (vnode labels differ in one digit), so
// the sum is pushed through a splitmix64-style finalizer to spread the
// points evenly.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Ring materializes the consistent-hash circle and the per-request
// constants the router reads off a map. It is idempotent and is called
// automatically by Owner; call it eagerly after decoding a map so concurrent
// readers never race the lazy build.
func (m *Map) Ring() {
	if m.ring != nil {
		return
	}
	m.via = "v" + strconv.FormatUint(m.Version, 10)
	for i := range m.Groups {
		g := &m.Groups[i]
		g.urls, g.spans = nil, nil
		for _, ep := range g.Endpoints() {
			g.urls = append(g.urls, strings.TrimSuffix(ep, "/"))
			g.spans = append(g.spans, "forward "+ep)
		}
	}
	vn := m.VNodes
	if vn <= 0 {
		vn = DefaultVNodes
	}
	r := &ring{}
	for gi, g := range m.Groups {
		for i := 0; i < vn; i++ {
			r.points = append(r.points, hashKey(fmt.Sprintf("%s#%d", g.Name, i)))
			r.owner = append(r.owner, gi)
		}
	}
	// Sort points and owners together; ties (hash collisions between
	// groups) break by group index so placement is deterministic.
	idx := make([]int, len(r.points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := r.points[idx[a]], r.points[idx[b]]
		if pa != pb {
			return pa < pb
		}
		return r.owner[idx[a]] < r.owner[idx[b]]
	})
	sorted := &ring{points: make([]uint64, len(idx)), owner: make([]int, len(idx))}
	for i, j := range idx {
		sorted.points[i] = r.points[j]
		sorted.owner[i] = r.owner[j]
	}
	m.ring = sorted
}

// GroupNamed returns the group with the given name.
func (m *Map) GroupNamed(name string) (*Group, bool) {
	for i := range m.Groups {
		if m.Groups[i].Name == name {
			return &m.Groups[i], true
		}
	}
	return nil, false
}

// Owner returns the group owning db: the Overrides pin when present,
// otherwise the ring's claim.
func (m *Map) Owner(db string) (*Group, error) {
	if len(m.Groups) == 0 {
		return nil, fmt.Errorf("shard: map v%d has no groups", m.Version)
	}
	if name, ok := m.Overrides[db]; ok {
		g, ok := m.GroupNamed(name)
		if !ok {
			return nil, fmt.Errorf("shard: override for %q names unknown group %q", db, name)
		}
		return g, nil
	}
	m.Ring()
	h := hashKey(db)
	i := sort.Search(len(m.ring.points), func(i int) bool { return m.ring.points[i] >= h })
	if i == len(m.ring.points) {
		i = 0 // wrap the circle
	}
	return &m.Groups[m.ring.owner[i]], nil
}

// IsFrozen reports whether writes to db are currently refused pending a
// reshard flip.
func (m *Map) IsFrozen(db string) bool {
	for _, f := range m.Frozen {
		if f == db {
			return true
		}
	}
	return false
}

// Clone returns a deep copy with the ring reset, ready to be mutated into
// the next version.
func (m *Map) Clone() *Map {
	c := &Map{Version: m.Version, VNodes: m.VNodes}
	c.Groups = make([]Group, len(m.Groups))
	for i, g := range m.Groups {
		c.Groups[i] = Group{Name: g.Name, Primary: g.Primary,
			Replicas: append([]string(nil), g.Replicas...)}
	}
	if m.Overrides != nil {
		c.Overrides = make(map[string]string, len(m.Overrides))
		for k, v := range m.Overrides {
			c.Overrides[k] = v
		}
	}
	c.Frozen = append([]string(nil), m.Frozen...)
	return c
}
