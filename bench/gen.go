package main

import (
	"fmt"
	"strconv"
	"strings"

	"funcdb/internal/datagen"
)

// The catalog every read workload queries. Sizes are fixed by the
// benchmark definition: cal is temporal with 64 clusters, sub functional
// with 2^6 clusters, rob has mixed (data-carrying) function symbols.
const (
	calN = 64
	subN = 6
	robN = 8
	// maxDepth bounds the term depth of generated ground queries
	// (uniform over 0..maxDepth-1).
	maxDepth = 1024
)

type family int

const (
	famCal family = iota
	famSub
	famRob
	numFamilies
)

var familyDB = [numFamilies]string{"cal", "sub", "rob"}

// catalog returns database name -> program source for the read workloads.
func catalog() map[string]string {
	return map[string]string{
		"cal": datagen.CalendarSrc(calN),
		"sub": datagen.SubsetsSrc(subN),
		"rob": datagen.RobotSrc(robN),
	}
}

// rng is splitmix64: small enough to seed per generated text, so any pool
// slot can be rendered on demand from (seed, slot) without storing it, and
// independent of math/rand's algorithm across Go releases.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// newRNG derives an independent stream for (seed, stream).
func newRNG(seed int64, stream uint64) rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1342543de82ef95)
	r.next()
	return r
}

// groundQuery is one ground yes/no query and the truth it has by
// construction (the generator knows why it holds; the oracle re-derives it
// independently through core).
type groundQuery struct {
	DB    string
	Text  string
	Truth bool
}

// groundText renders a ground query of the given family and term depth.
// wantTrue asks for a query that holds; depth 0 leaves no room to choose for
// sub (Member(0, e) never holds).
func groundText(f family, depth int, wantTrue bool, r *rng) groundQuery {
	var b strings.Builder
	switch f {
	case famCal:
		k := depth % calN
		if !wantTrue {
			k = (k + 1 + r.intn(calN-1)) % calN
		}
		b.WriteString("?- Meets(")
		b.WriteString(strconv.Itoa(depth))
		b.WriteString(", s")
		b.WriteString(strconv.Itoa(k))
		b.WriteString(").")
		return groundQuery{"cal", b.String(), wantTrue}
	case famSub:
		// Member(list, e) holds iff e occurs in the non-empty list.
		q := r.intn(subN)
		forced := -1
		if wantTrue && depth > 0 {
			forced = r.intn(depth)
		}
		b.Grow(9*depth + 24)
		b.WriteString("?- Member(")
		for i := 0; i < depth; i++ {
			b.WriteString("ext(")
		}
		b.WriteByte('0')
		for i := 0; i < depth; i++ {
			e := q
			if i != forced {
				if wantTrue {
					e = r.intn(subN)
				} else {
					e = (q + 1 + r.intn(subN-1)) % subN
				}
			}
			b.WriteString(", e")
			b.WriteByte(byte('0' + e))
			b.WriteByte(')')
		}
		b.WriteString(", e")
		b.WriteByte(byte('0' + q))
		b.WriteString(").")
		return groundQuery{"sub", b.String(), wantTrue && depth > 0}
	default:
		// At(path, p) holds iff the path follows ring edges i->i+1 (plus
		// the chord p0->p4) from p0 and ends at p.
		path := make([]byte, depth+1)
		for i := 1; i <= depth; i++ {
			cur := path[i-1]
			nxt := (cur + 1) % robN
			if cur == 0 && r.intn(2) == 0 {
				nxt = robN / 2
			}
			path[i] = nxt
		}
		end := int(path[depth])
		if !wantTrue {
			end = (end + 1 + r.intn(robN-1)) % robN
		}
		b.Grow(14*depth + 16)
		b.WriteString("?- At(")
		for i := 0; i < depth; i++ {
			b.WriteString("move(")
		}
		b.WriteByte('0')
		for i := 1; i <= depth; i++ {
			b.WriteString(", p")
			b.WriteByte('0' + path[i-1])
			b.WriteString(", p")
			b.WriteByte('0' + path[i])
			b.WriteByte(')')
		}
		b.WriteString(", p")
		b.WriteByte(byte('0' + end))
		b.WriteString(").")
		return groundQuery{"rob", b.String(), wantTrue}
	}
}

// hotPoolSize is the number of distinct texts of ask_hot and lib_ask: it
// fits the server answer LRU (1024) and the plan cache (4096) many times
// over.
const hotPoolSize = 64

// hotPool returns the ask_hot / lib_ask texts. Depths are stratified — slot
// i draws from [16i, 16i+16) — so the marginal distribution is uniform over
// 0..1023 while the mean body size barely moves between seeds; families and
// truth values are balanced the same way.
func hotPool(seed int64) []groundQuery {
	r := newRNG(seed, 1)
	perm := make([]int, hotPoolSize)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	pool := make([]groundQuery, hotPoolSize)
	stride := maxDepth / hotPoolSize
	for i := range pool {
		depth := perm[i]*stride + r.intn(stride)
		pool[i] = groundText(family(i%int(numFamilies)), depth, (i/int(numFamilies))%2 == 0, &r)
	}
	return pool
}

// widePoolSize is the number of slots ask_wide draws from uniformly: 16x
// the plan cache and 64x the answer LRU, so both miss.
const widePoolSize = 1 << 16

// wideQuery renders slot i of the ask_wide pool on demand (the pool would
// be ~250 MB materialized). cal slots walk a bijection of the 1024x64
// (depth, student) grid so they never repeat; sub and rob slots of depth
// >= 3 are distinct with overwhelming probability.
func wideQuery(seed int64, slot int) groundQuery {
	r := newRNG(seed, uint64(slot)+2)
	f := family(slot % int(numFamilies))
	if f == famCal {
		x := (uint64(slot/int(numFamilies))*40503 + uint64(seed)*2654435761) & (widePoolSize - 1)
		depth, k := int(x>>6), int(x&63)
		return groundQuery{"cal", "?- Meets(" + strconv.Itoa(depth) + ", s" + strconv.Itoa(k) + ").", depth%calN == k}
	}
	return groundText(f, r.intn(maxDepth), r.intn(2) == 0, &r)
}

// answersQuery is one open query of the answers workload: text, enumeration
// depth, and whether Theorem 5.1's incremental specification applies.
type answersQuery struct {
	DB      string
	Text    string
	Depth   int
	Uniform bool
}

// answersLimit is the tuple cap every answers op sends.
const answersLimit = 1000

// answersPool returns every (text, depth) pair of the answers workload:
// 4208 uniform and 4240 non-uniform pairs over 179 distinct texts, so the
// answer LRU (1024 entries, keyed on text+depth) mostly misses while the
// plan cache (keyed on text) always hits after warm-up.
func answersPool() (uniform, nonUniform []answersQuery) {
	for d := 1; d <= 64; d++ {
		uniform = append(uniform, answersQuery{"cal", "?- Meets(T, X).", d, true})
		for k := 0; k < calN; k++ {
			uniform = append(uniform, answersQuery{"cal", fmt.Sprintf("?- Meets(T, s%d).", k), d, true})
			nonUniform = append(nonUniform, answersQuery{"cal", fmt.Sprintf("?- Meets(T+1, s%d).", k), d, false})
		}
	}
	for d := 1; d <= 4; d++ {
		for k := 0; k < subN; k++ {
			uniform = append(uniform, answersQuery{"sub", fmt.Sprintf("?- Member(S, e%d).", k), d, true})
			for j := 0; j < subN; j++ {
				nonUniform = append(nonUniform, answersQuery{"sub", fmt.Sprintf("?- Member(ext(S, e%d), e%d).", j, k), d, false})
			}
		}
	}
	for d := 1; d <= 3; d++ {
		for k := 0; k < robN; k++ {
			uniform = append(uniform, answersQuery{"rob", fmt.Sprintf("?- At(S, p%d).", k), d, true})
		}
	}
	return uniform, nonUniform
}
