package sepe

import (
	"github.com/sepe-go/sepe/internal/adaptive"
	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/hashes"
)

// This file exposes the self-healing layer: hashes that detect format
// drift (the paper's RQ7 failure mode), fall back to a general-purpose
// function with one atomic swap, re-synthesize a specialized function
// from recently observed keys in the background, and promote it once
// validated — plus containers that migrate their buckets to the new
// function incrementally, without a stop-the-world rehash.

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
// defaults throughout (sample 1/64, reservoir 512, 4 attempts with
// 50ms..2s backoff, 10s attempt timeout, STL fallback, the default
// metrics registry).
type AdaptiveConfig = adaptive.Config

// AdaptiveSynthesizer produces replacement hash functions from sample
// keys; set AdaptiveConfig.Synthesize to override the default
// re-infer-and-synthesize pipeline (e.g. in tests).
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
		// Synthesis tracers are not required to be goroutine-safe; the
		// background loop must not share the caller's.
		o.Tracer = nil
		if o.Seed != nil {
			cfg.Synthesize = adaptive.NewSeededSynthesizer(core.Family(fam), o)
		} else {
			cfg.Synthesize = adaptive.NewSynthesizer(core.Family(fam), o)
		}
	}
	a, err := adaptive.New(name, h.Func(), f.Matches, cfg)
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
// HashFunc is. Note that plain containers built from it do not
// re-bucket on a swap — use the adaptive containers for that.
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

// Adaptive containers: the std::unordered_* equivalents bound to an
// AdaptiveHash. Each operation costs one generation check on top of
// the plain container; when the hash swaps (fallback or promotion),
// the container starts an incremental migration and every subsequent
// operation drains a few retired buckets, so the swap never causes a
// stop-the-world rehash. Operations also feed every K-th key to the
// drift monitor — deterministic observation that works even when
// drifted hash values defeat the hash-bit sampling of AdaptiveHash.
//
// Like the plain containers, adaptive containers are not safe for
// concurrent use; the hash they share is.
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

// adaptiveCore is the per-container bookkeeping shared by the four
// adaptive shapes.
type adaptiveCore struct {
	h         *adaptive.Hash
	gen       uint64
	ops       uint64
	migrating bool
}

// migratable is the container-side surface the adaptive wrapper
// drives.
type migratable interface {
	BeginMigration(newHash hashes.Func)
	MigrateStep(k int) bool
	Migrating() bool
}

// tick runs the per-operation adaptive duties: sampled observation,
// swap detection, and one bounded migration step. The common healthy
// path is a counter increment and two predictable branches; the
// atomic generation test runs every adaptiveCheckEvery ops, and the
// interface dispatches only on a swap or during a migration
// (c.migrating mirrors the container's state so the steady state
// never calls through the interface).
func (c *adaptiveCore) tick(key string, m migratable) {
	c.ops++
	if c.migrating {
		c.migrating = m.MigrateStep(adaptiveMigrateStep)
	}
	if c.ops&(adaptiveCheckEvery-1) != 0 {
		return
	}
	if c.ops&(adaptiveObserveEvery-1) == 0 {
		c.h.Observe(key)
	}
	if g := c.h.Generation(); g != c.gen {
		c.gen = g
		m.BeginMigration(c.h.Current())
		c.migrating = true
	}
}

// AdaptiveMap is a Map bound to an AdaptiveHash: it re-buckets
// incrementally whenever the hash swaps generations.
type AdaptiveMap[V any] struct {
	c adaptiveCore
	m *container.Map[V]
}

// NewMapAdaptive returns an empty AdaptiveMap over h.
func NewMapAdaptive[V any](h *AdaptiveHash) *AdaptiveMap[V] {
	return NewMapAdaptiveObserved[V](h, nil)
}

// NewMapAdaptiveObserved returns an AdaptiveMap whose container
// operations feed cm: per-op probe depths, B-Coll, and — because the
// adaptive loop migrates buckets on every generation swap — the
// migration markers (sepe_container_migrations_total, the migrating
// gauge, and flight-recorder migrate events). A nil cm yields a plain
// AdaptiveMap.
func NewMapAdaptiveObserved[V any](h *AdaptiveHash, cm *ContainerMetrics) *AdaptiveMap[V] {
	m := &AdaptiveMap[V]{
		c: adaptiveCore{h: h.a, gen: h.a.Generation()},
		m: container.NewMap[V](h.a.Current(), nil),
	}
	m.m.SetHooks(containerHooks(cm, false))
	return m
}

// Put maps key to val, reporting whether the key was new.
func (m *AdaptiveMap[V]) Put(key string, val V) bool {
	m.c.tick(key, m.m)
	return m.m.Put(key, val)
}

// Get returns the value mapped to key.
func (m *AdaptiveMap[V]) Get(key string) (V, bool) {
	m.c.tick(key, m.m)
	return m.m.Get(key)
}

// Delete removes the mapping for key.
func (m *AdaptiveMap[V]) Delete(key string) int {
	m.c.tick(key, m.m)
	return m.m.Delete(key)
}

// Len returns the number of entries.
func (m *AdaptiveMap[V]) Len() int { return m.m.Len() }

// ForEach visits every entry in unspecified order.
func (m *AdaptiveMap[V]) ForEach(f func(key string, val V)) { m.m.ForEach(f) }

// Stats returns bucket measurements (both regions during a migration).
func (m *AdaptiveMap[V]) Stats() TableStats { return fromStats(m.m.Stats()) }

// Migrating reports whether an incremental re-bucket is in progress.
func (m *AdaptiveMap[V]) Migrating() bool { return m.m.Migrating() }

// Hash returns the adaptive hash the map is bound to.
func (m *AdaptiveMap[V]) Hash() *AdaptiveHash { return &AdaptiveHash{a: m.c.h} }

// AdaptiveSet is a Set bound to an AdaptiveHash.
type AdaptiveSet struct {
	c adaptiveCore
	s *container.Set
}

// NewSetAdaptive returns an empty AdaptiveSet over h.
func NewSetAdaptive(h *AdaptiveHash) *AdaptiveSet {
	return &AdaptiveSet{
		c: adaptiveCore{h: h.a, gen: h.a.Generation()},
		s: container.NewSet(h.a.Current(), nil),
	}
}

// Add inserts key, reporting whether it was new.
func (s *AdaptiveSet) Add(key string) bool {
	s.c.tick(key, s.s)
	return s.s.Add(key)
}

// Has reports membership.
func (s *AdaptiveSet) Has(key string) bool {
	s.c.tick(key, s.s)
	return s.s.Search(key)
}

// Delete removes key.
func (s *AdaptiveSet) Delete(key string) int {
	s.c.tick(key, s.s)
	return s.s.Erase(key)
}

// Len returns the number of members.
func (s *AdaptiveSet) Len() int { return s.s.Len() }

// Stats returns bucket measurements.
func (s *AdaptiveSet) Stats() TableStats { return fromStats(s.s.Stats()) }

// Migrating reports whether an incremental re-bucket is in progress.
func (s *AdaptiveSet) Migrating() bool { return s.s.Migrating() }

// AdaptiveMultiMap is a MultiMap bound to an AdaptiveHash.
type AdaptiveMultiMap[V any] struct {
	c adaptiveCore
	m *container.MultiMap[V]
}

// NewMultiMapAdaptive returns an empty AdaptiveMultiMap over h.
func NewMultiMapAdaptive[V any](h *AdaptiveHash) *AdaptiveMultiMap[V] {
	return &AdaptiveMultiMap[V]{
		c: adaptiveCore{h: h.a, gen: h.a.Generation()},
		m: container.NewMultiMap[V](h.a.Current(), nil),
	}
}

// Put adds one key→val entry; duplicates are kept.
func (m *AdaptiveMultiMap[V]) Put(key string, val V) {
	m.c.tick(key, m.m)
	m.m.Put(key, val)
}

// GetAll returns every value mapped to key.
func (m *AdaptiveMultiMap[V]) GetAll(key string) []V {
	m.c.tick(key, m.m)
	return m.m.GetAll(key)
}

// Count returns the number of entries for key.
func (m *AdaptiveMultiMap[V]) Count(key string) int {
	m.c.tick(key, m.m)
	return m.m.Count(key)
}

// Delete removes all entries for key.
func (m *AdaptiveMultiMap[V]) Delete(key string) int {
	m.c.tick(key, m.m)
	return m.m.Delete(key)
}

// Len returns the total entry count.
func (m *AdaptiveMultiMap[V]) Len() int { return m.m.Len() }

// Stats returns bucket measurements.
func (m *AdaptiveMultiMap[V]) Stats() TableStats { return fromStats(m.m.Stats()) }

// Migrating reports whether an incremental re-bucket is in progress.
func (m *AdaptiveMultiMap[V]) Migrating() bool { return m.m.Migrating() }

// AdaptiveMultiSet is a MultiSet bound to an AdaptiveHash.
type AdaptiveMultiSet struct {
	c adaptiveCore
	s *container.MultiSet
}

// NewMultiSetAdaptive returns an empty AdaptiveMultiSet over h.
func NewMultiSetAdaptive(h *AdaptiveHash) *AdaptiveMultiSet {
	return &AdaptiveMultiSet{
		c: adaptiveCore{h: h.a, gen: h.a.Generation()},
		s: container.NewMultiSet(h.a.Current(), nil),
	}
}

// Add inserts one occurrence of key.
func (s *AdaptiveMultiSet) Add(key string) {
	s.c.tick(key, s.s)
	s.s.Insert(key)
}

// Count returns the number of occurrences of key.
func (s *AdaptiveMultiSet) Count(key string) int {
	s.c.tick(key, s.s)
	return s.s.Count(key)
}

// Has reports whether key occurs at least once.
func (s *AdaptiveMultiSet) Has(key string) bool {
	s.c.tick(key, s.s)
	return s.s.Search(key)
}

// Delete removes all occurrences of key.
func (s *AdaptiveMultiSet) Delete(key string) int {
	s.c.tick(key, s.s)
	return s.s.Erase(key)
}

// Len returns the total occurrence count.
func (s *AdaptiveMultiSet) Len() int { return s.s.Len() }

// Stats returns bucket measurements.
func (s *AdaptiveMultiSet) Stats() TableStats { return fromStats(s.s.Stats()) }

// Migrating reports whether an incremental re-bucket is in progress.
func (s *AdaptiveMultiSet) Migrating() bool { return s.s.Migrating() }
