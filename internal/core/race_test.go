//go:build race

package core

// raceBuild reports a build with the race detector, whose sync.Pool drops a
// share of what is put back: a pooled sink is then now and again made
// afresh, and an allocation bound that rests on pooling does not hold.
const raceBuild = true
