//go:build race

package server

// raceBuild reports a build with the race detector, whose sync.Pool drops a
// share of what is put back: a pooled buffer is then now and again made
// afresh, and a byte bound that rests on pooling holds only loosely.
const raceBuild = true
