//go:build !race

package api

const raceBuild = false
