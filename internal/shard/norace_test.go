//go:build !race

package shard

const raceBuild = false
