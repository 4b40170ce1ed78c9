// Package intern is the one interning index of funcdb's append-only stores
// (term.Universe, facts.World, facts.Set, symbols.Table): an open-addressing
// hash table from a key's hash to the dense id of the record that holds it.
//
// A store keeps its records in an array it only appends to and looks a key up
// by comparing it with the records the index points at, so the index holds
// no keys of its own. One goroutine writes; any number read. A frozen view of
// a store is its record array cut at a length n plus a copy of the Index
// value: the view shares the slots with the writer and passes n to Find,
// which skips every id at or past it. Nothing is ever deleted or overwritten,
// so skipping keeps linear probing correct: a record below n was put in the
// first free slot of its probe sequence, every slot before it was taken then
// and is still, and the reader walks past whatever took them to reach it.
// Growth moves the writer to a new slot array; views keep the one they copied.
package intern

import "sync/atomic"

// Index is the hash table. The zero value is empty and ready to use.
type Index struct {
	// slots has a power-of-two length and is at most half full. A slot is
	// hash<<32 | id+1, zero when free; it is written once, atomically.
	slots []atomic.Uint64
	n     int
}

// New returns an index with room for n ids before it first grows.
func New(n int) *Index {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return &Index{slots: make([]atomic.Uint64, size)}
}

// Find returns the first id below limit whose slot carries hash h and for
// which eq reports true, or -1.
func (x *Index) Find(h uint32, limit int32, eq func(id int32) bool) int32 {
	if len(x.slots) == 0 {
		return -1
	}
	mask := uint32(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := x.slots[i].Load()
		if s == 0 {
			return -1
		}
		if id := int32(uint32(s)) - 1; uint32(s>>32) == h && id < limit && eq(id) {
			return id
		}
	}
}

// Insert adds id under hash h. The writer calls it after a Find that missed,
// with the record already in place.
func (x *Index) Insert(h uint32, id int32) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]atomic.Uint64, max(8, 2*len(old)))
		for i := range old {
			if s := old[i].Load(); s != 0 {
				x.put(s)
			}
		}
	}
	x.put(uint64(h)<<32 | uint64(uint32(id+1)))
	x.n++
}

func (x *Index) put(s uint64) {
	mask := uint32(len(x.slots) - 1)
	i := uint32(s>>32) & mask
	for x.slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	x.slots[i].Store(s)
}

// Reset empties the index, keeping its slots. Only an index no other
// goroutine reads may be reset: a query-local overlay's.
func (x *Index) Reset() {
	if x.n != 0 {
		clear(x.slots)
		x.n = 0
	}
}

// Hash mixes a 64-bit key down to the 32 bits a slot holds.
func Hash(k uint64) uint32 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return uint32(k >> 32)
}

// HashIDs hashes a sequence of identifiers.
func HashIDs[T ~int32](ids []T) uint32 {
	h := uint64(len(ids))
	for _, id := range ids {
		h = (h ^ uint64(uint32(id))) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return Hash(h)
}
