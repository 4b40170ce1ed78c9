// Package leakcheck is the goroutine-leak assertion the daemons' tests share.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Settled fails t unless the process is back at baseline goroutines (a
// runtime.NumGoroutine reading taken before the servers under test were
// started) within five seconds of everything having been closed: connection
// and handler goroutines unwind asynchronously, a stranded one never does.
// The failure carries every goroutine's stack.
func Settled(t testing.TB, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<18)
			t.Fatalf("%d goroutines, %d at the baseline:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
