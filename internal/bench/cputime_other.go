//go:build !linux

package bench

import "time"

// threadCPUTime reports that no per-thread CPU clock is read on this
// platform, so onCPU falls back to wall time.
func threadCPUTime() (time.Duration, bool) { return 0, false }
