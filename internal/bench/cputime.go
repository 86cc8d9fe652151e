package bench

import (
	"runtime"
	"time"
)

// onCPU runs f on one locked OS thread and returns the processor time
// the thread spent on it. On an oversubscribed host a millisecond-scale
// run waits for a processor for as long again or longer, a wait that
// varies from run to run while the work does not, so wall time bends a
// scaling curve that on-CPU time keeps straight. Where the thread's
// CPU time is unavailable (see threadCPUTime) onCPU returns the wall
// time.
func onCPU(f func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, ok0 := threadCPUTime()
	start := time.Now()
	f()
	el := time.Since(start)
	if c1, ok1 := threadCPUTime(); ok0 && ok1 {
		return c1 - c0
	}
	return el
}
