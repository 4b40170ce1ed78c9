package obs

import (
	"crypto/rand"
	"encoding/binary"
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

// FingerprintHash is Fingerprint's hash, 64-bit FNV-1a, for a shape written
// in pieces: fold each piece in as it is written, and the fingerprint costs
// no pass of its own over the finished shape. (Inline rather than hash/fnv,
// which would have every piece copied into a []byte.)
type FingerprintHash uint64

// NewFingerprintHash returns the hash of the empty shape.
func NewFingerprintHash() FingerprintHash { return 14695981039346656037 }

// AddString folds s into h.
func (h FingerprintHash) AddString(s string) FingerprintHash {
	for i := 0; i < len(s); i++ {
		h = (h ^ FingerprintHash(s[i])) * 1099511628211
	}
	return h
}

// Append appends the fingerprint h renders as, 16 hex digits, to dst.
func (h FingerprintHash) Append(dst []byte) []byte { return appendHex64(dst, uint64(h)) }
