// Package shard implements the lock-striped router behind every
// sharded container: one generic Table splits its keys over a
// power-of-two number of independent container.Tables, each guarded
// by its own RWMutex, so writers on different shards never contend
// and readers proceed in parallel within a shard. The multi flag of
// the underlying tables selects the container kind, so the four kinds
// share this one router.
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
// *Hashed entry points. After a migration swaps a table's function,
// its CurrentHash recomputes the probing hash under the shard lock,
// while routing keeps using the creation-time hash. The batch operations (PutBatch,
// GetBatch) additionally group keys by shard with one counting sort
// and take each shard's lock once per batch instead of once per key.
//
// Lock ordering: no operation holds more than one shard lock at a
// time. Whole-container operations (Len, Stats, Clear, BeginMigration,
// batches) visit shards in ascending index, releasing each lock
// before taking the next, so they compose without deadlock — at the
// cost of not being atomic snapshots across shards. A migration step
// locks only the one shard it drains.
package shard

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/hashes"
)

// maxShards bounds the automatic sizing; an explicit count may exceed
// it.
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

// shardCount resolves a requested shard count: n < 1 selects the
// GOMAXPROCS-based default, anything else rounds up to a power of two.
func shardCount(n int) int {
	if n < 1 {
		return defaultShards()
	}
	return nextPow2(n)
}

// shardLock is one stripe's RWMutex and migrating flag, padded to a
// cache line so adjacent stripes' lock words do not false-share. The
// flag is written only under the lock and read atomically, so a
// migration step can skip finished stripes without locking them.
//
//sepe:lockrank 50
type shardLock struct {
	sync.RWMutex
	migrating atomic.Bool
	_         [36]byte
}

func log2(n int) int {
	l := 0
	for 1<<l < n {
		l++
	}
	return l
}

// router maps keys to shards by the top bits of their hash.
type router struct {
	hash  hashes.Func
	shift uint
}

func newRouter(hash hashes.Func, shards int) router {
	return router{hash: hash, shift: uint(64 - log2(shards))}
}

// shardOf routes a hash to its shard by the top bits. For a single
// shard shift is 64 and the expression is constant zero (Go defines
// over-wide shifts as 0, unlike C).
//
//sepe:noalloc inline
func (r *router) shardOf(h uint64) int { return int(h >> r.shift) }

// group computes each key's routing hash into hs and builds a
// permutation ordering the keys by shard: order holds indices into
// keys, and keys order[start[s]:start[s+1]] belong to shard s. One
// counting sort over n shards — no per-shard slice allocations.
func (r *router) group(keys []string, hs []uint64, n int) (order []int32, start []int32) {
	start = make([]int32, n+1)
	for i, k := range keys {
		h := r.hash(k)
		hs[i] = h
		start[r.shardOf(h)+1]++
	}
	for s := 0; s < n; s++ {
		start[s+1] += start[s]
	}
	order = make([]int32, len(keys))
	fill := make([]int32, n)
	copy(fill, start[:n])
	for i := range keys {
		s := r.shardOf(hs[i])
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
