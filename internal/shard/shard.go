// Package shard implements lock-striped concurrent variants of the
// four hash containers. A sharded container splits its keys over a
// power-of-two number of independent chained-bucket tables, each
// guarded by its own RWMutex, so writers on different shards never
// contend and readers proceed in parallel within a shard.
//
// Shard selection uses the TOP bits of the specialized hash:
//
//	shard := hash >> (64 - log2(shards))
//
// The per-shard tables keep indexing buckets from the full hash
// modulo a prime, which depends on the low bits — so routing and
// probing consume disjoint ends of the word. (A low-bit shard
// selector would alias with the modulo and starve buckets, the same
// low-mixing failure RQ7 studies for containers.) The top bits are
// used unmixed, so shards are only as balanced as those bits: a
// mixing function (Aes, STLHash) spreads keys evenly, but the
// non-mixing families do not — a Pext plan routes on its highest
// extracted key bits, and xor-folding families (Naive, OffXor) can
// send every key of a fixed-width format to one shard. DESIGN.md §8
// records the measured spread per family and format.
//
// The hash is computed once per operation, outside any lock, and
// handed to the shard's table through the container package's
// *Hashed entry points. The batch operations (PutBatch, GetBatch,
// ...) additionally group keys by shard with one counting sort and
// take each shard's lock once per batch instead of once per key.
//
// Lock ordering: no operation holds more than one shard lock at a
// time. Whole-container operations (Len, Stats, Clear, ForEach,
// batches) visit shards in ascending index, releasing each lock
// before taking the next, so they compose without deadlock — at the
// cost of not being atomic snapshots across shards.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/hashes"
)

// Option configures a sharded container.
type Option func(*config)

type config struct {
	shards int
}

// WithShards fixes the shard count. Values are rounded up to a power
// of two; n < 1 selects the GOMAXPROCS-based default.
func WithShards(n int) Option {
	return func(c *config) { c.shards = n }
}

// maxShards bounds the automatic sizing; WithShards may exceed it.
const maxShards = 512

// defaultShards sizes the stripe from GOMAXPROCS: four stripes per
// processor (rounded up to a power of two) keeps the probability of
// two running goroutines colliding on a shard low without making
// whole-container sweeps expensive.
func defaultShards() int {
	n := nextPow2(4 * runtime.GOMAXPROCS(0))
	if n < 8 {
		n = 8
	}
	if n > maxShards {
		n = maxShards
	}
	return n
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

func resolveShards(opts []Option) int {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.shards < 1 {
		return defaultShards()
	}
	return nextPow2(c.shards)
}

// shardLock is one stripe's RWMutex, padded to a cache line so
// adjacent stripes' lock words do not false-share.
//
//sepe:lockrank 50
type shardLock struct {
	sync.RWMutex
	_ [40]byte
}

// core is the bookkeeping shared by the four sharded shapes: the
// routing hash, the stripe of locks, and the migration state. The
// typed wrappers hold the parallel slice of per-shard tables; index i
// of that slice is guarded by locks[i].
type core struct {
	router hashes.Func
	shift  uint
	locks  []shardLock

	// hashed is true while every shard's table still hashes with
	// router, so the *Hashed fast path may reuse the routing hash for
	// probing. The first BeginMigration clears it permanently: after a
	// hash swap only the tables know their current function.
	hashed atomic.Bool

	// cursor round-robins MigrateStep over the shards.
	cursor atomic.Uint64
}

func (c *core) init(router hashes.Func, n int) {
	c.router = router
	c.shift = uint(64 - log2(n))
	c.locks = make([]shardLock, n)
	c.hashed.Store(true)
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// shardOf routes a hash to its shard by the top bits. For a single
// shard shift is 64 and the expression is constant zero (Go defines
// over-wide shifts as 0, unlike C).
//
//sepe:noalloc inline
func (c *core) shardOf(h uint64) int { return int(h >> c.shift) }

// Shards returns the shard count.
func (c *core) Shards() int { return len(c.locks) }

// group computes each key's routing hash into hs and builds a
// permutation ordering the keys by shard: order holds indices into
// keys, and keys order[start[s]:start[s+1]] belong to shard s. One
// counting sort — no per-shard slice allocations.
func (c *core) group(keys []string, hs []uint64) (order []int32, start []int32) {
	n := len(c.locks)
	start = make([]int32, n+1)
	for i, k := range keys {
		h := c.router(k)
		hs[i] = h
		start[c.shardOf(h)+1]++
	}
	for s := 0; s < n; s++ {
		start[s+1] += start[s]
	}
	order = make([]int32, len(keys))
	fill := make([]int32, n)
	copy(fill, start[:n])
	for i := range keys {
		s := c.shardOf(hs[i])
		order[fill[s]] = int32(i)
		fill[s]++
	}
	return order, start
}

// mergeStats folds per-shard bucket measurements into one Stats
// block: sizes, bucket counts and collision counts are additive
// across disjoint shards, while MaxBucketLen is a worst-case measure
// and must take the maximum — averaging it would report a probe bound
// no shard actually guarantees.
func mergeStats(parts []container.Stats) container.Stats {
	var out container.Stats
	for _, s := range parts {
		out.Size += s.Size
		out.Buckets += s.Buckets
		out.BucketCollisions += s.BucketCollisions
		if s.MaxBucketLen > out.MaxBucketLen {
			out.MaxBucketLen = s.MaxBucketLen
		}
	}
	return out
}
