//go:build !unix

package api

import "net"

// liveness is empty here: hopAlive cannot peek without blocking.
type liveness struct{}

func (*liveness) init(net.Conn) {}

// hopAlive cannot peek without blocking here; a dead pooled connection
// shows as a failed exchange instead.
func hopAlive(*hopConn) bool { return true }
