//go:build race

package api

// raceBuild reports a build with the race detector, whose sync.Pool drops a
// share of what is put back: byte gates that rest on pooling do not hold
// under it.
const raceBuild = true
