//go:build unix

package api

import (
	"net"
	"syscall"
)

// liveness is what hopAlive needs to peek at one connection, made once when
// the connection is dialed so that a check allocates nothing: its RawConn,
// and the callback the RawConn's Read runs, which writes its verdict here.
type liveness struct {
	rc    syscall.RawConn // nil: the connection cannot be peeked at
	peek  func(fd uintptr) bool
	alive bool
	b     [1]byte
}

func (p *liveness) init(nc net.Conn) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return
	}
	p.rc = rc
	p.peek = func(fd uintptr) bool {
		_, _, err := syscall.Recvfrom(int(fd), p.b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		p.alive = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
		return true
	}
}

// hopAlive reports whether an idle pooled connection is still open: a peek
// that does not block finds nothing to read. A daemon that went away left
// EOF or a reset there, and a live one never writes to an idle hop.
func hopAlive(hc *hopConn) bool {
	p := &hc.probe
	if p.rc == nil {
		return true
	}
	p.alive = false
	return p.rc.Read(p.peek) == nil && p.alive
}
