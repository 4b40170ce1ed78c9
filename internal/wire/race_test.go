//go:build race

package wire

// raceBuild reports a build with the race detector, whose sync.Pool drops a
// share of what is put back: allocation gates that rest on pooling do not
// hold under it.
const raceBuild = true
