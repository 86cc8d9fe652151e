package sepe

import (
	"github.com/sepe-go/sepe/internal/adaptive"
	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/shard"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// This file exposes the repository's std::unordered_* equivalents.
// The container is one composition of orthogonal choices:
//
//   - the kind: NewMap, NewSet, NewMultiMap or NewMultiSet;
//   - the hash source: a HashFunc, or an *AdaptiveHash, which makes the
//     container re-bucket incrementally whenever the hash swaps
//     generations;
//   - Sharded(n): lock striping for concurrent use;
//   - Observed(reg, name): per-operation telemetry.
//
// Every composition has the same method set. Sets are views over a
// map with no values, multisets over a multimap with no values.

// TableStats exposes bucket measurements of a container.
type TableStats struct {
	// Size is the number of stored entries.
	Size int
	// Buckets is the current bucket count (always prime per table; a
	// sharded container sums its shards).
	Buckets int
	// BucketCollisions counts keys sharing a bucket with an earlier
	// key — the paper's B-Coll measurement.
	BucketCollisions int
	// MaxBucketLen is the longest chain.
	MaxBucketLen int
}

func fromStats(s container.Stats) TableStats { return TableStats(s) }

// HashSource is what a container hashes with: a plain HashFunc, or an
// *AdaptiveHash, whose generation swaps the container follows.
type HashSource interface{ HashFunc | *AdaptiveHash }

// ContainerOption configures a container at construction.
type ContainerOption func(*containerConfig)

type containerConfig struct {
	sharded bool
	shards  int
	reg     *MetricsRegistry
	name    string
}

// Sharded makes the container safe for concurrent use by splitting
// its keys over a power-of-two number of independent tables (shards),
// each guarded by its own RWMutex: writers on different shards never
// contend, readers proceed in parallel within a shard. n rounds up to
// a power of two; n < 1 sizes the stripe from GOMAXPROCS. Shard
// selection uses the top bits of the hash, bucket probing inside a
// shard the prime modulus, so the two stay independent.
//
// Whole-container views (Len, Stats, ForEach) visit shards one at a
// time and are not atomic snapshots. The batch operations group keys
// by shard and take each shard's lock once per batch.
func Sharded(n int) ContainerOption {
	return func(c *containerConfig) { c.sharded, c.shards = true, n }
}

// Observed feeds the container's operations to metric blocks in reg
// (nil selects the default registry): per-op probe depths, rehashes,
// a running B-Coll count and, for adaptive containers, migration
// markers. A single-owner container registers one block named name; a
// sharded one registers name.shard0 … name.shard<n-1>, which
// MergeContainerSnapshots folds into a whole-container view.
func Observed(reg *MetricsRegistry, name string) ContainerOption {
	return func(c *containerConfig) {
		if reg == nil {
			reg = telemetry.Default
		}
		c.reg, c.name = reg, name
	}
}

// store is the one composition behind all four kinds. Exactly one of
// t and sh is set; ad is set when the hash source is adaptive.
type store[V any] struct {
	t  *container.Table[V] // single-owner storage
	sh *shard.Table[V]     // lock-striped storage
	ad *adaptiveTick
}

func newStore[V any, S HashSource](src S, multi bool, opts []ContainerOption) store[V] {
	var cfg containerConfig
	for _, o := range opts {
		o(&cfg)
	}
	var hash HashFunc
	var ah *adaptive.Hash
	var gen uint64
	switch s := any(src).(type) {
	case HashFunc:
		hash = s
	case *AdaptiveHash:
		// Generation before function: a swap in between makes the
		// first tick migrate to the function already in use, which is
		// harmless, rather than miss the swap.
		ah, gen = s.a, s.a.Generation()
		hash = ah.Current()
	}
	var c store[V]
	var m migrator
	if cfg.sharded {
		c.sh = shard.NewTable[V](hash, multi, cfg.shards)
		if cfg.reg != nil {
			ms := cfg.reg.NewContainerShards(cfg.name, c.sh.Shards())
			c.sh.SetShardObservers(func(i int) container.Observer { return telemetry.NewShardContainerOps(ms[i]) })
		}
		m = c.sh
	} else {
		c.t = container.NewTable[V](hash, multi)
		if cfg.reg != nil {
			c.t.SetObserver(telemetry.NewBatchedContainerOps(cfg.reg.NewContainer(cfg.name)))
		}
		m = c.t
	}
	if ah != nil {
		c.ad = &adaptiveTick{h: ah, m: m, shared: cfg.sharded}
		c.ad.gen.Store(gen)
	}
	return c
}

// put, get and del serve a plain single-owner container straight from
// its table through the hashed entry points, which keeps that path one
// call deep, as deep as the table's own Put; every other composition
// takes the routed path, which ticks the adaptive hash and picks the
// storage.
func (c *store[V]) put(key string, val V) bool {
	if c.ad == nil && c.sh == nil {
		return c.t.PutHashed(c.t.Hash(key), key, val)
	}
	return c.putRouted(key, val)
}

func (c *store[V]) get(key string) (V, bool) {
	if c.ad == nil && c.sh == nil {
		return c.t.GetHashed(c.t.Hash(key), key)
	}
	return c.getRouted(key)
}

func (c *store[V]) del(key string) int {
	if c.ad == nil && c.sh == nil {
		return c.t.DeleteHashed(c.t.Hash(key), key)
	}
	return c.delRouted(key)
}

func (c *store[V]) putRouted(key string, val V) bool {
	c.tick(key)
	if c.sh != nil {
		return c.sh.Put(key, val)
	}
	return c.t.PutHashed(c.t.Hash(key), key, val)
}

func (c *store[V]) getRouted(key string) (V, bool) {
	c.tick(key)
	if c.sh != nil {
		return c.sh.Get(key)
	}
	return c.t.GetHashed(c.t.Hash(key), key)
}

func (c *store[V]) delRouted(key string) int {
	c.tick(key)
	if c.sh != nil {
		return c.sh.Delete(key)
	}
	return c.t.DeleteHashed(c.t.Hash(key), key)
}

// tick runs the adaptive duties of one operation on key, if any.
func (c *store[V]) tick(key string) {
	if c.ad != nil {
		c.ad.tick(key)
	}
}

func (c *store[V]) count(key string) int {
	c.tick(key)
	if c.sh != nil {
		return c.sh.Count(key)
	}
	return c.t.Count(key)
}

func (c *store[V]) getAll(key string) []V {
	c.tick(key)
	if c.sh != nil {
		return c.sh.GetAll(key)
	}
	return c.t.GetAll(key)
}

// tickAll runs the adaptive duties once per key of a batch, so a batch
// steps a migration as far as the same keys one by one would.
func (c *store[V]) tickAll(keys []string) {
	for _, k := range keys {
		c.tick(k)
	}
}

func (c *store[V]) putBatch(keys []string, vals []V) {
	vals = vals[:len(keys)]
	c.tickAll(keys)
	if c.sh != nil {
		c.sh.PutBatch(keys, vals)
		return
	}
	for i, k := range keys {
		c.t.Put(k, vals[i])
	}
}

func (c *store[V]) getBatch(keys []string, vals []V, found []bool) {
	vals, found = vals[:len(keys)], found[:len(keys)]
	c.tickAll(keys)
	if c.sh != nil {
		c.sh.GetBatch(keys, vals, found)
		return
	}
	for i, k := range keys {
		vals[i], found[i] = c.t.Get(k)
	}
}

// Len returns the number of entries.
func (c *store[V]) Len() int {
	if c.sh != nil {
		return c.sh.Len()
	}
	return c.t.Len()
}

// ForEach visits every entry in unspecified order. It copies the
// entries first and calls f on the copy, so f may call back into the
// container, mutating it included: f sees exactly the entries present
// when ForEach began, each once, whatever it inserts or deletes. A
// sharded container copies one shard at a time under its read lock,
// so the copy is not an atomic snapshot of concurrent writers.
//
// The copies are sized from the entry count up front. On a sharded
// container that count is only a hint: a shard that grows before its
// turn is copied by append.
func (c *store[V]) ForEach(f func(key string, val V)) {
	n := c.Len()
	keys, vals := make([]string, 0, n), make([]V, 0, n)
	if c.sh != nil {
		for i := range c.sh.Shards() {
			keys, vals = c.sh.Snapshot(i, keys, vals)
		}
	} else {
		keys, vals = c.t.Snapshot(keys, vals)
	}
	for i, k := range keys {
		f(k, vals[i])
	}
}

// Stats returns bucket measurements. A sharded container merges its
// shards: sizes, buckets and collision counts are summed, MaxBucketLen
// is the maximum (a worst-case bound is not averageable). During an
// adaptive migration both regions count.
func (c *store[V]) Stats() TableStats {
	if c.sh != nil {
		return fromStats(c.sh.Stats())
	}
	return fromStats(c.t.Stats())
}

// ShardStats returns each shard's bucket measurements; a single-owner
// container is one shard.
func (c *store[V]) ShardStats() []TableStats {
	if c.sh == nil {
		return []TableStats{fromStats(c.t.Stats())}
	}
	ss := c.sh.ShardStats()
	out := make([]TableStats, len(ss))
	for i, s := range ss {
		out[i] = fromStats(s)
	}
	return out
}

// Shards returns the shard count: 1 for a single-owner container.
func (c *store[V]) Shards() int {
	if c.sh != nil {
		return c.sh.Shards()
	}
	return 1
}

// Reserve pre-sizes the container so n entries fit without rehashing
// (spread evenly over the shards of a sharded container).
func (c *store[V]) Reserve(n int) {
	if c.sh != nil {
		c.sh.Reserve(n)
		return
	}
	c.t.Reserve(n)
}

// LoadFactor returns entries per bucket.
func (c *store[V]) LoadFactor() float64 {
	if c.sh != nil {
		s := c.sh.Stats()
		return float64(s.Size) / float64(s.Buckets)
	}
	return c.t.LoadFactor()
}

// Clear removes every entry, keeping the bucket arrays.
func (c *store[V]) Clear() {
	if c.sh != nil {
		c.sh.Clear()
		return
	}
	c.t.Clear()
}

// Migrating reports whether an incremental re-bucket after an
// adaptive hash swap is in progress (in any shard).
func (c *store[V]) Migrating() bool {
	if c.sh != nil {
		return c.sh.Migrating()
	}
	return c.t.Migrating()
}

// Map is a string-keyed hash map with chained buckets, prime growth
// and modulo indexing — the std::unordered_map equivalent of the
// paper's driver. It is safe for concurrent use only when built
// Sharded.
type Map[V any] struct{ store[V] }

// NewMap returns an empty Map hashing with src.
func NewMap[V any, S HashSource](src S, opts ...ContainerOption) *Map[V] {
	return &Map[V]{newStore[V](src, false, opts)}
}

// Put maps key to val, replacing any existing mapping; it reports
// whether the key was new.
func (m *Map[V]) Put(key string, val V) bool { return m.put(key, val) }

// Get returns the value mapped to key.
func (m *Map[V]) Get(key string) (V, bool) { return m.get(key) }

// Delete removes the mapping for key, reporting how many entries were
// removed (0 or 1).
func (m *Map[V]) Delete(key string) int { return m.del(key) }

// PutBatch puts keys[i]→vals[i] for every i, hashing each key once;
// a sharded map takes each shard's lock once per batch. vals must be
// at least as long as keys.
func (m *Map[V]) PutBatch(keys []string, vals []V) { m.putBatch(keys, vals) }

// GetBatch looks up every key, writing vals[i], found[i] for keys[i].
// vals and found must be at least as long as keys.
func (m *Map[V]) GetBatch(keys []string, vals []V, found []bool) { m.getBatch(keys, vals, found) }

// MultiMap is the std::unordered_multimap equivalent: one key may map
// to several values.
type MultiMap[V any] struct{ store[V] }

// NewMultiMap returns an empty MultiMap hashing with src.
func NewMultiMap[V any, S HashSource](src S, opts ...ContainerOption) *MultiMap[V] {
	return &MultiMap[V]{newStore[V](src, true, opts)}
}

// Put adds one key→val entry; duplicates are kept.
func (m *MultiMap[V]) Put(key string, val V) { m.put(key, val) }

// GetAll returns every value mapped to key, in insertion order.
func (m *MultiMap[V]) GetAll(key string) []V { return m.getAll(key) }

// Count returns the number of entries for key.
func (m *MultiMap[V]) Count(key string) int { return m.count(key) }

// Delete removes all entries for key, reporting how many.
func (m *MultiMap[V]) Delete(key string) int { return m.del(key) }

// PutBatch adds keys[i]→vals[i] for every i, keeping the relative
// order of duplicate keys. vals must be at least as long as keys.
func (m *MultiMap[V]) PutBatch(keys []string, vals []V) { m.putBatch(keys, vals) }

// Set is the std::unordered_set equivalent: a Map without values.
type Set struct{ store[struct{}] }

// NewSet returns an empty Set hashing with src.
func NewSet[S HashSource](src S, opts ...ContainerOption) *Set {
	return &Set{newStore[struct{}](src, false, opts)}
}

// Add inserts key, reporting whether it was new.
func (s *Set) Add(key string) bool { return s.put(key, struct{}{}) }

// Has reports membership.
func (s *Set) Has(key string) bool { _, ok := s.get(key); return ok }

// Delete removes key, reporting how many entries were removed.
func (s *Set) Delete(key string) int { return s.del(key) }

// AddBatch inserts every key.
func (s *Set) AddBatch(keys []string) { s.putBatch(keys, make([]struct{}, len(keys))) }

// HasBatch writes found[i] = membership of keys[i]. found must be at
// least as long as keys.
func (s *Set) HasBatch(keys []string, found []bool) {
	s.getBatch(keys, make([]struct{}, len(keys)), found)
}

// ForEach visits every member, with Map.ForEach's contract.
func (s *Set) ForEach(f func(key string)) { s.store.ForEach(func(k string, _ struct{}) { f(k) }) }

// MultiSet is the std::unordered_multiset equivalent: a MultiMap
// without values.
type MultiSet struct{ store[struct{}] }

// NewMultiSet returns an empty MultiSet hashing with src.
func NewMultiSet[S HashSource](src S, opts ...ContainerOption) *MultiSet {
	return &MultiSet{newStore[struct{}](src, true, opts)}
}

// Add inserts one occurrence of key.
func (s *MultiSet) Add(key string) { s.put(key, struct{}{}) }

// Count returns the number of occurrences of key.
func (s *MultiSet) Count(key string) int { return s.count(key) }

// Has reports whether key occurs at least once.
func (s *MultiSet) Has(key string) bool { _, ok := s.get(key); return ok }

// Delete removes all occurrences of key, reporting how many.
func (s *MultiSet) Delete(key string) int { return s.del(key) }

// AddBatch inserts one occurrence of every key.
func (s *MultiSet) AddBatch(keys []string) { s.putBatch(keys, make([]struct{}, len(keys))) }

// ForEach visits every occurrence, with Map.ForEach's contract.
func (s *MultiSet) ForEach(f func(key string)) {
	s.store.ForEach(func(k string, _ struct{}) { f(k) })
}

// ShardedMap is Map.
//
// Deprecated: use Map.
type ShardedMap[V any] = Map[V]

// ShardedAdaptiveMap is Map.
//
// Deprecated: use Map.
type ShardedAdaptiveMap[V any] = Map[V]

// NewShardedMap is NewMap(hash, Sharded(0)).
//
// Deprecated: use NewMap with Sharded.
func NewShardedMap[V any](hash HashFunc) *Map[V] { return NewMap[V](hash, Sharded(0)) }

// NewShardedMapObserved is NewMap(hash, Sharded(0), Observed(r, name)).
//
// Deprecated: use NewMap with Sharded and Observed.
func NewShardedMapObserved[V any](hash HashFunc, r *MetricsRegistry, name string) *Map[V] {
	return NewMap[V](hash, Sharded(0), Observed(r, name))
}

// NewShardedMapAdaptive is NewMap(h, Sharded(0)).
//
// Deprecated: use NewMap with Sharded.
func NewShardedMapAdaptive[V any](h *AdaptiveHash) *Map[V] { return NewMap[V](h, Sharded(0)) }
