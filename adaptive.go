package sepe

import (
	"sync/atomic"

	"github.com/sepe-go/sepe/internal/adaptive"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/hashes"
)

// This file exposes the self-healing layer: hashes that detect format
// drift (the paper's RQ7 failure mode), fall back to a general-purpose
// function with one atomic swap, re-synthesize a specialized function
// from recently observed keys in the background, and promote it once
// validated — and the tick that lets any container built from such a
// hash migrate its buckets to the new function incrementally, without
// a stop-the-world rehash.

// AdaptiveState is one node of the self-healing state machine:
// Specialized → Degraded → Resynthesizing → Recovered (or Pinned once
// the circuit breaker trips).
type AdaptiveState = adaptive.State

// The adaptive lifecycle states.
const (
	AdaptiveSpecialized    = adaptive.StateSpecialized
	AdaptiveDegraded       = adaptive.StateDegraded
	AdaptiveResynthesizing = adaptive.StateResynthesizing
	AdaptiveRecovered      = adaptive.StateRecovered
	AdaptivePinned         = adaptive.StatePinned
)

// AdaptiveConfig tunes a self-healing hash; the zero value selects
// defaults throughout (observe 1 call in 256, reservoir 512, 4
// attempts with 50ms..2s backoff, 10s attempt timeout, STL fallback,
// the default metrics registry).
type AdaptiveConfig = adaptive.Config

// AdaptiveFunction is what an adaptive hash serves and an
// AdaptiveSynthesizer returns: a hash function together with the
// membership predicate of the format it was specialized to. A *Hash is
// an AdaptiveFunction.
type AdaptiveFunction = adaptive.Function

// AdaptiveSynthesizer produces replacement functions from sample keys;
// set AdaptiveConfig.Synthesize to override the default
// re-infer-and-synthesize pipeline (e.g. in tests). It returns an
// AdaptiveFunction, which a *Hash is: a synthesizer can return the
// result of Synthesize as it is.
type AdaptiveSynthesizer = adaptive.Synthesizer

// AdaptiveHash is a self-healing hash function. It serves the
// synthesized specialized function while the key stream conforms to
// its format; on drift it atomically swaps to the fallback (readers
// never block — the read path is one atomic pointer load) and heals
// itself in the background: re-infer the format from a reservoir of
// recently observed keys, synthesize, validate against fresh traffic,
// promote. Attempts retry with exponential backoff and jitter under a
// per-attempt timeout; persistent failure pins the fallback.
//
// All methods are safe for concurrent use. Call Close to stop any
// background re-synthesis when discarding the hash.
type AdaptiveHash struct{ a *adaptive.Hash }

// NewAdaptiveHash synthesizes a hash of the given family for the
// format and wraps it for self-healing under the given name (the label
// of its drift and lifecycle metrics). Unless cfg.Synthesize is set,
// background re-synthesis re-infers the format from observed keys and
// synthesizes the same family with the same options — and when the
// options carry a seed (WithSeed), every re-synthesis rotates it: the
// recovered function is keyed afresh, so a flood that defeated the old
// seed dies with it.
func NewAdaptiveHash(name string, f *Format, fam Family, cfg AdaptiveConfig, opts ...Option) (*AdaptiveHash, error) {
	if f == nil {
		return nil, ErrNilFormat
	}
	h, err := Synthesize(f, fam, opts...)
	if err != nil {
		return nil, err
	}
	if cfg.Synthesize == nil {
		var o core.Options
		for _, opt := range opts {
			opt(&o)
		}
		cfg.Synthesize = adaptive.NewSynthesizer(core.Family(fam), o)
	}
	a, err := adaptive.New(name, h, cfg)
	if err != nil {
		return nil, err
	}
	return &AdaptiveHash{a: a}, nil
}

// NewSeededAdaptiveHash is NewAdaptiveHash with a fresh random seed
// prepended to opts: the initial function is keyed, and the healing
// loop rotates the key on every recovery.
func NewSeededAdaptiveHash(name string, f *Format, fam Family, cfg AdaptiveConfig, opts ...Option) (*AdaptiveHash, error) {
	return NewAdaptiveHash(name, f, fam, cfg, append([]Option{WithSeed(NewSeed())}, opts...)...)
}

// Hash applies the currently active function.
func (h *AdaptiveHash) Hash(key string) uint64 { return h.a.Hash(key) }

// Func returns the self-switching function value, usable anywhere a
// HashFunc is. Note that containers built from the function value do
// not re-bucket on a swap — build them from the AdaptiveHash itself.
func (h *AdaptiveHash) Func() HashFunc { return h.a.Func() }

// State returns the current lifecycle state.
func (h *AdaptiveHash) State() AdaptiveState { return h.a.State() }

// Generation counts function swaps: 1 for the original specialized
// function, +1 per fallback or promotion.
func (h *AdaptiveHash) Generation() uint64 { return h.a.Generation() }

// Current returns a pinned snapshot of the active function. Unlike
// Func, the returned value never switches and never observes keys —
// use it to hash a batch under one consistent generation.
func (h *AdaptiveHash) Current() HashFunc { return h.a.Current() }

// Monitor returns the drift monitor watching the hash's key stream.
func (h *AdaptiveHash) Monitor() *DriftMonitor { return h.a.Monitor() }

// Metrics returns the lifecycle metric block (state, transitions,
// generations, re-synthesis outcomes), also exported through the
// configured registry's Prometheus/JSON endpoint.
func (h *AdaptiveHash) Metrics() *AdaptiveMetrics { return h.a.Metrics() }

// Close cancels any background re-synthesis and waits for it to stop.
// The hash keeps serving its current function but no longer heals.
func (h *AdaptiveHash) Close() { h.a.Close() }

// HashBatch hashes keys[i] into out[i] with the active function
// pinned once for the whole batch (one atomic load per batch instead
// of per key). The batch counts as len(keys) calls toward drift
// sampling, so batch callers hand the drift monitor the same keys as
// single-call loops.
func (h *AdaptiveHash) HashBatch(keys []string, out []uint64) { h.a.HashBatch(keys, out) }

// Containers built from an AdaptiveHash (NewMap(h) and the other
// kinds) follow its generation swaps. Each operation costs one tick on
// top of the plain container; when the hash swaps (fallback or
// promotion), the container starts an incremental migration and every
// subsequent operation drains a few retired buckets, so the swap never
// causes a stop-the-world rehash. A sharded container migrates each
// shard with its own dual-region drain, and each step drains the next
// shard still migrating, so other shards' readers never wait on a
// draining shard and no step lands on a finished one; routing keeps the
// construction-time hash, which needs only determinism and spread.
// The containers hash with the pinned function rather than through
// AdaptiveHash.Hash, so they bypass its call counter and feed every
// K-th key to the drift monitor on their own count.
const (
	// adaptiveCheckEvery is how often (in ops, power of two) the tick
	// looks at the shared hash at all — the generation test is two
	// dependent atomic loads, too costly for every operation.
	adaptiveCheckEvery = 8
	// adaptiveObserveEvery feeds every K-th container key to the drift
	// monitor (power of two, multiple of adaptiveCheckEvery). The
	// observation takes the monitor's mutex, so it is the dominant
	// per-op cost; 64 keeps the container overhead in the noise while
	// a sustained drift still fills a detection window within a few
	// thousand operations.
	adaptiveObserveEvery = 64
	// adaptiveMigrateStep is the number of retired buckets drained per
	// operation during a migration.
	adaptiveMigrateStep = 16
)

// migrator is the storage surface the tick drives: a container.Table
// or a shard.Table.
type migrator interface {
	BeginMigration(newHash hashes.Func)
	MigrateStep(k int) bool
	Migrating() bool
}

// adaptiveTick binds a container to an adaptive hash. A single-owner
// container counts its operations in ops; a sharded one (shared) in
// sharedOps, so many goroutines may tick at once. The generation CAS
// elects exactly one operation to start each migration.
type adaptiveTick struct {
	h         *adaptive.Hash
	m         migrator
	shared    bool
	ops       uint64
	sharedOps atomic.Uint64
	gen       atomic.Uint64
	migrating atomic.Bool
}

// tick runs the per-operation adaptive duties: sampled observation,
// swap detection, and one bounded migration step. The healthy path is
// one counter increment, one load and two predictable branches; every
// adaptiveCheckEvery ops, and on every op of a migration, step does
// the rest.
func (c *adaptiveTick) tick(key string) {
	var ops uint64
	if c.shared {
		ops = c.sharedOps.Add(1)
	} else {
		c.ops++
		ops = c.ops
	}
	if ops&(adaptiveCheckEvery-1) != 0 && !c.migrating.Load() {
		return
	}
	c.step(key, ops)
}

// step is tick's slow path. The generation test runs every
// adaptiveCheckEvery ops; the interface dispatches only on a swap,
// during a migration, or in the re-arm check every
// adaptiveObserveEvery ops. During a migration concurrent traffic on
// a sharded container parallelizes the drain, each operation stepping
// the next shard.
func (c *adaptiveTick) step(key string, ops uint64) {
	if c.migrating.Load() && !c.m.MigrateStep(adaptiveMigrateStep) {
		c.migrating.Store(false)
	}
	if ops&(adaptiveCheckEvery-1) != 0 {
		return
	}
	if ops&(adaptiveObserveEvery-1) == 0 {
		c.h.Observe(key)
		// Re-arm after a lost race: a goroutine clearing the flag at
		// the end of one migration can overwrite the set of a migration
		// that began concurrently. The periodic scan restores it.
		if !c.migrating.Load() && c.m.Migrating() {
			c.migrating.Store(true)
		}
	}
	g := c.h.Generation()
	if old := c.gen.Load(); g != old && c.gen.CompareAndSwap(old, g) {
		c.m.BeginMigration(c.h.Current())
		c.migrating.Store(true)
	}
}
