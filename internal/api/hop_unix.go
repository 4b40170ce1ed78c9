//go:build unix

package api

import (
	"net"
	"syscall"
)

// hopAlive reports whether an idle pooled connection is still open: a peek
// that does not block finds nothing to read. A daemon that went away left
// EOF or a reset there, and a live one never writes to an idle hop.
func hopAlive(nc net.Conn) bool {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	alive := false
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, _, rerr := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		alive = rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK
		return true
	})
	return err == nil && alive
}
