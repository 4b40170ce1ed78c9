package obs

import (
	"crypto/rand"
	"encoding/binary"
	"math/bits"
	"sync/atomic"
	"time"
)

// ID generation. With the flight recorder on, every request mints a trace ID
// and a request ID, so the crypto/rand read the package used to pay per trace
// (a syscall on most platforms) is measurable at hot-path rates. Instead a
// 128-bit process epoch is drawn from crypto/rand once at startup and each ID
// is splitmix64 of (epoch word XOR a process-wide counter): unique within the
// process by the counter, unguessable across processes by the epoch, and
// costing one atomic add and no syscalls per ID.

var (
	idEpoch   [2]uint64
	idCounter atomic.Uint64
)

func init() {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// No entropy source: fall back to the clock. IDs stay unique within
		// the process; cross-process collisions become merely unlikely.
		now := uint64(time.Now().UnixNano())
		binary.LittleEndian.PutUint64(b[0:8], splitmix64(now))
		binary.LittleEndian.PutUint64(b[8:16], splitmix64(now^0x9e3779b97f4a7c15))
	}
	idEpoch[0] = binary.LittleEndian.Uint64(b[0:8])
	idEpoch[1] = binary.LittleEndian.Uint64(b[8:16])
}

// splitmix64 is the finalizer of the SplitMix64 generator: a fast, well
// distributed bijection on 64-bit values.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const hexDigits = "0123456789abcdef"

func appendHex64(dst []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(v>>uint(shift))&0xf])
	}
	return dst
}

// NewTraceID returns a 32-hex-digit W3C-compatible trace ID.
func NewTraceID() string {
	n := idCounter.Add(1)
	hi := splitmix64(idEpoch[0] ^ n)
	lo := splitmix64(idEpoch[1] ^ (n << 1) ^ 0xa5a5a5a5a5a5a5a5)
	if hi == 0 && lo == 0 {
		lo = 1 // the all-zero trace ID is invalid per W3C
	}
	buf := make([]byte, 0, 32)
	buf = appendHex64(buf, hi)
	buf = appendHex64(buf, lo)
	return string(buf)
}

// NewSpanID returns a 16-hex-digit W3C-compatible parent/span ID.
func NewSpanID() string {
	v := splitmix64(idEpoch[1] ^ idCounter.Add(1))
	if v == 0 {
		v = 1
	}
	return string(appendHex64(make([]byte, 0, 16), v))
}

// NewRequestID returns a short (16-hex-digit) per-request identifier for
// logs and the X-Request-Id header.
func NewRequestID() string {
	return NewSpanID()
}

// Fingerprint hashes a canonical query shape (or, where there is no plan,
// whitespace-normalized query text) into the 16-hex query fingerprint that
// recorder entries, the per-fingerprint stats table and log lines share.
// It is a function of the shape alone, so a compiled plan computes it once.
func Fingerprint(shape string) string {
	if shape == "" {
		return ""
	}
	return string(NewFingerprintHash().AddString(shape).Append(make([]byte, 0, 16)))
}

// FingerprintHash is Fingerprint's hash, for a shape written in pieces:
// fold each piece in as it is written, and the fingerprint costs no pass of
// its own over the finished shape. It reads the shape eight bytes at a time,
// as little-endian words, and carries the at most seven bytes past a piece's
// last whole word into the next one, so that however a shape is cut into
// pieces it hashes as it does whole. The hash is fixed — no seed — because
// fingerprints outlive the process: in metric series, logs and recorded
// entries. Per word it is one multiply on the chain and one off it; the
// length and a SplitMix64 finalizer end it.
type FingerprintHash struct {
	h    uint64 // the whole words folded so far
	tail uint64 // the bytes past them, little-endian
	n    uint64 // the bytes folded, tail included
}

// The multipliers of the fold: SplitMix64's.
const (
	fpMul1 = 0xbf58476d1ce4e5b9
	fpMul2 = 0x94d049bb133111eb
)

// fpFold folds the word w into h.
func fpFold(h, w uint64) uint64 { return bits.RotateLeft64(h^w*fpMul1, 31) * fpMul2 }

// NewFingerprintHash returns the hash of the empty shape.
func NewFingerprintHash() FingerprintHash { return FingerprintHash{h: 0x9e3779b97f4a7c15} }

// AddString folds s into h.
func (h FingerprintHash) AddString(s string) FingerprintHash {
	k := uint(h.n & 7) // the bytes carried
	h.n += uint64(len(s))
	if k > 0 {
		for ; k < 8 && len(s) > 0; k++ {
			h.tail |= uint64(s[0]) << (8 * k)
			s = s[1:]
		}
		if k < 8 {
			return h
		}
		h.h, h.tail = fpFold(h.h, h.tail), 0
	}
	for ; len(s) >= 8; s = s[8:] {
		h.h = fpFold(h.h, load64(s))
	}
	for i := 0; i < len(s); i++ {
		h.tail |= uint64(s[i]) << (8 * i)
	}
	return h
}

// load64 returns the first eight bytes of s, little-endian, in one load.
func load64(s string) uint64 {
	s = s[:8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// Sum64 returns the hash of what was folded in.
func (h FingerprintHash) Sum64() uint64 {
	x := h.h
	if h.n&7 != 0 {
		x = fpFold(x, h.tail)
	}
	return splitmix64(x ^ h.n)
}

// Append appends the fingerprint h renders as, 16 hex digits, to dst.
func (h FingerprintHash) Append(dst []byte) []byte { return appendHex64(dst, h.Sum64()) }
