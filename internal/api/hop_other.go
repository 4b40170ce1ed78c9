//go:build !unix

package api

import "net"

// hopAlive cannot peek without blocking here; a dead pooled connection
// shows as a failed exchange instead.
func hopAlive(net.Conn) bool { return true }
