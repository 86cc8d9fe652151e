package bench

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// threadCPUTime returns the calling thread's accumulated CPU time: the
// first field of /proc/thread-self/schedstat, in nanoseconds. The
// kernel brings that figure up to date only at a scheduling event, so
// a sched_yield first makes it exact instead of up to a tick stale.
func threadCPUTime() (time.Duration, bool) {
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	b, err := os.ReadFile("/proc/thread-self/schedstat")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0, false
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(ns), true
}
