package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DriftMonitor watches a stream of observed keys for format drift: a
// growing fraction of keys outside the format a hash function was
// specialized to. A specialized function is only as good as its
// format assumption — off-format keys hash deterministically but with
// near-zero mixing (the failure mode behind the paper's RQ7), so a
// deployment that keeps feeding a drifted stream into a Pext function
// silently converts its O(1) table into a collision list. The monitor
// checks every key it is handed against the format's membership
// predicate (its callers choose how many keys to hand it), tracks the
// mismatch rate over a sliding window, and raises Degraded once the
// rate crosses a threshold — at which point the safe move is falling back to a general-purpose
// function (STLHash) until the format is re-inferred.
type DriftMonitor struct {
	name    string
	matches func(string) bool
	cfg     DriftConfig

	observed   atomic.Uint64
	sampled    atomic.Uint64
	mismatched atomic.Uint64
	degraded   atomic.Bool
	fired      atomic.Bool

	mu      sync.Mutex
	ring    []bool // ring[i]: checked key i (mod window) mismatched
	ringPos int
	ringLen int
	ringMis int

	// rec receives degraded/recovered transition instants when the
	// monitor was created through a registry; nil otherwise.
	rec *Recorder
}

// DriftConfig tunes a DriftMonitor. The zero value selects the
// defaults noted per field.
type DriftConfig struct {
	// SampleEvery is ignored: the monitor checks every key handed to
	// Observe, and its callers choose how often to hand one over.
	//
	// Deprecated: leave it unset.
	SampleEvery int
	// Window is the number of recent samples the mismatch rate is
	// computed over (default 256).
	Window int
	// MinSamples is the number of window samples required before
	// Degraded may fire (default 64), so a single early off-format
	// key cannot trip the alarm.
	MinSamples int
	// Threshold is the window mismatch rate at or above which the
	// monitor reports degradation (default 0.10).
	Threshold float64
	// OnDegrade, if set, is invoked exactly once, from the goroutine
	// whose sample first crossed the threshold. The intended use is
	// alerting or swapping the container's hash to a general-purpose
	// fallback.
	OnDegrade func(DriftSnapshot)
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 64
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.10
	}
	return c
}

// NewDriftMonitor builds a monitor named name over the format
// membership predicate matches.
func NewDriftMonitor(name string, matches func(string) bool, cfg DriftConfig) *DriftMonitor {
	cfg = cfg.withDefaults()
	return &DriftMonitor{
		name:    name,
		matches: matches,
		cfg:     cfg,
		ring:    make([]bool, cfg.Window),
	}
}

// Name returns the monitor's name.
func (d *DriftMonitor) Name() string { return d.name }

// Observe checks key against the format and updates the sliding
// window. It takes the window mutex, so hot paths hand over a sample
// of their keys rather than every one.
func (d *DriftMonitor) Observe(key string) {
	if d == nil {
		return
	}
	d.observe(key, 1)
}

// observe checks key as the representative of n observed keys: the
// instrumented hash wrapper hands over one key per flush of n calls.
func (d *DriftMonitor) observe(key string, n uint64) {
	d.observed.Add(n)
	miss := !d.matches(key)
	d.sampled.Add(1)
	if miss {
		d.mismatched.Add(1)
	}

	d.mu.Lock()
	if d.ringLen == len(d.ring) {
		if d.ring[d.ringPos] {
			d.ringMis--
		}
	} else {
		d.ringLen++
	}
	d.ring[d.ringPos] = miss
	if miss {
		d.ringMis++
	}
	d.ringPos = (d.ringPos + 1) % len(d.ring)
	enough := d.ringLen >= d.cfg.MinSamples
	rate := float64(d.ringMis) / float64(d.ringLen)
	// The degraded/fired updates stay under the window mutex so that a
	// concurrent Reset cannot be clobbered by a sample that computed
	// its rate against the pre-Reset window.
	fire := false
	if enough {
		if rate >= d.cfg.Threshold {
			if !d.degraded.Swap(true) {
				d.rec.Instant("drift", "drift.degraded",
					Str("monitor", d.name), Str("rate", fmt.Sprintf("%.3f", rate)))
			}
			fire = d.cfg.OnDegrade != nil && d.fired.CompareAndSwap(false, true)
		} else if d.degraded.Swap(false) {
			d.rec.Instant("drift", "drift.recovered",
				Str("monitor", d.name), Str("rate", fmt.Sprintf("%.3f", rate)))
		}
	}
	d.mu.Unlock()

	if fire {
		d.cfg.OnDegrade(d.Snapshot())
	}
}

// Degraded reports whether the windowed mismatch rate most recently
// crossed the threshold. It recovers to false if the stream returns
// to conforming keys (the OnDegrade callback still fires only once
// per Reset cycle).
func (d *DriftMonitor) Degraded() bool { return d.degraded.Load() }

// Reset clears the sliding window, the degraded flag and the one-shot
// OnDegrade latch, so the monitor judges the stream afresh. The
// adaptive recovery path calls it at promotion time: a hash that has
// just been re-synthesized for the drifted stream must start with a
// clean mismatch window, not inherit the degraded window of its
// predecessor and instantly re-trip. Lifetime counters (Observed,
// Sampled, Mismatched) are preserved — they describe the stream, not
// the current hash.
func (d *DriftMonitor) Reset() {
	d.mu.Lock()
	for i := range d.ring {
		d.ring[i] = false
	}
	d.ringPos, d.ringLen, d.ringMis = 0, 0, 0
	// The flag stores stay under the window mutex, mirroring check():
	// otherwise a sample racing with Reset could re-assert a degraded
	// flag computed against the pre-Reset window.
	d.degraded.Store(false)
	d.fired.Store(false)
	d.mu.Unlock()
}

// MismatchRate returns the mismatch rate over the current window
// (0 when nothing has been checked yet).
func (d *DriftMonitor) MismatchRate() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ringLen == 0 {
		return 0
	}
	return float64(d.ringMis) / float64(d.ringLen)
}

// DriftSnapshot is a point-in-time copy of a drift monitor's state.
type DriftSnapshot struct {
	Name string `json:"name"`
	// Observed is the total number of keys seen.
	Observed uint64 `json:"observed"`
	// Sampled is the number of keys checked against the format.
	Sampled uint64 `json:"sampled"`
	// Mismatched is the all-time number of off-format samples.
	Mismatched uint64 `json:"mismatched"`
	// WindowRate is the mismatch rate over the sliding window.
	WindowRate float64 `json:"window_rate"`
	// Degraded reports whether the rate crossed the threshold.
	Degraded bool `json:"degraded"`
}

// Snapshot copies the monitor's current state.
func (d *DriftMonitor) Snapshot() DriftSnapshot {
	return DriftSnapshot{
		Name:       d.name,
		Observed:   d.observed.Load(),
		Sampled:    d.sampled.Load(),
		Mismatched: d.mismatched.Load(),
		WindowRate: d.MismatchRate(),
		Degraded:   d.Degraded(),
	}
}
