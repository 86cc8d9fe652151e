package shard

import (
	"sync/atomic"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/hashes"
)

// Table is a lock-striped set of container.Tables. All methods are
// safe for concurrent use. Whole-container views (Len, Stats) visit
// shards one lock at a time and are not atomic snapshots.
type Table[V any] struct {
	router
	locks []shardLock
	tabs  []*container.Table[V] // tabs[i] is guarded by locks[i]

	// active counts the shards whose migrating flag is set; cursor
	// spreads concurrent MigrateStep calls over those shards.
	active atomic.Int64
	cursor atomic.Uint64
}

// NewTable returns an empty striped table over hash with n shards
// (n < 1 selects the GOMAXPROCS default; others round up to a power
// of two). multi keeps duplicate keys, as container.NewTable.
func NewTable[V any](hash hashes.Func, multi bool, n int) *Table[V] {
	n = shardCount(n)
	t := &Table[V]{
		router: newRouter(hash, n),
		locks:  make([]shardLock, n),
		tabs:   make([]*container.Table[V], n),
	}
	for i := range t.tabs {
		t.tabs[i] = container.NewTable[V](hash, multi)
	}
	return t
}

// Shards returns the shard count.
func (t *Table[V]) Shards() int { return len(t.tabs) }

// Put maps key to val (appends, for a multi table), reporting whether
// the key was new.
func (t *Table[V]) Put(key string, val V) bool {
	h := t.hash(key)
	s := t.shardOf(h)
	t.locks[s].Lock()
	tab := t.tabs[s]
	isNew := tab.PutHashed(tab.CurrentHash(h, key), key, val)
	t.locks[s].Unlock()
	return isNew
}

// Get returns the first value mapped to key.
func (t *Table[V]) Get(key string) (V, bool) {
	h := t.hash(key)
	s := t.shardOf(h)
	t.locks[s].RLock()
	tab := t.tabs[s]
	v, ok := tab.GetHashed(tab.CurrentHash(h, key), key)
	t.locks[s].RUnlock()
	return v, ok
}

// Count returns the number of entries for key.
func (t *Table[V]) Count(key string) int {
	h := t.hash(key)
	s := t.shardOf(h)
	t.locks[s].RLock()
	tab := t.tabs[s]
	n := tab.CountHashed(tab.CurrentHash(h, key), key)
	t.locks[s].RUnlock()
	return n
}

// GetAll returns every value mapped to key.
func (t *Table[V]) GetAll(key string) []V {
	h := t.hash(key)
	s := t.shardOf(h)
	t.locks[s].RLock()
	tab := t.tabs[s]
	vs := tab.GetAllHashed(tab.CurrentHash(h, key), key)
	t.locks[s].RUnlock()
	return vs
}

// Delete removes every entry for key, reporting how many went away.
func (t *Table[V]) Delete(key string) int {
	h := t.hash(key)
	s := t.shardOf(h)
	t.locks[s].Lock()
	tab := t.tabs[s]
	n := tab.DeleteHashed(tab.CurrentHash(h, key), key)
	t.locks[s].Unlock()
	return n
}

// PutBatch puts keys[i]→vals[i] for every i, grouping the keys by
// shard so each shard's lock is taken once per batch rather than once
// per key. Within a shard the batch applies in key order, so the
// relative order of duplicate keys is kept; across shards the order
// is unspecified (shards hold disjoint keys).
func (t *Table[V]) PutBatch(keys []string, vals []V) {
	vals = vals[:len(keys)]
	hs := make([]uint64, len(keys))
	order, start := t.group(keys, hs, len(t.tabs))
	for s := range t.tabs {
		lo, hi := start[s], start[s+1]
		if lo == hi {
			continue
		}
		t.locks[s].Lock()
		tab := t.tabs[s]
		for _, i := range order[lo:hi] {
			tab.PutHashed(tab.CurrentHash(hs[i], keys[i]), keys[i], vals[i])
		}
		t.locks[s].Unlock()
	}
}

// GetBatch looks up every key, writing vals[i], found[i] for keys[i].
// Like PutBatch it takes each shard's read lock once per batch.
func (t *Table[V]) GetBatch(keys []string, vals []V, found []bool) {
	vals = vals[:len(keys)]
	found = found[:len(keys)]
	hs := make([]uint64, len(keys))
	order, start := t.group(keys, hs, len(t.tabs))
	for s := range t.tabs {
		lo, hi := start[s], start[s+1]
		if lo == hi {
			continue
		}
		t.locks[s].RLock()
		tab := t.tabs[s]
		for _, i := range order[lo:hi] {
			vals[i], found[i] = tab.GetHashed(tab.CurrentHash(hs[i], keys[i]), keys[i])
		}
		t.locks[s].RUnlock()
	}
}

// Len returns the total entry count across shards.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.tabs {
		t.locks[i].RLock()
		n += t.tabs[i].Len()
		t.locks[i].RUnlock()
	}
	return n
}

// Stats returns bucket measurements merged across shards (sizes and
// collision counts summed, MaxBucketLen the maximum).
func (t *Table[V]) Stats() container.Stats { return mergeStats(t.ShardStats()) }

// ShardStats returns each shard's bucket measurements.
func (t *Table[V]) ShardStats() []container.Stats {
	out := make([]container.Stats, len(t.tabs))
	for i := range t.tabs {
		t.locks[i].RLock()
		out[i] = t.tabs[i].Stats()
		t.locks[i].RUnlock()
	}
	return out
}

// Snapshot appends shard i's entries to keys and vals under its read
// lock and returns the extended slices. Callers iterate the copy after
// the lock is released, so a callback may call back into the table,
// mutations included, and never stalls concurrent writers.
func (t *Table[V]) Snapshot(i int, keys []string, vals []V) ([]string, []V) {
	t.locks[i].RLock()
	keys, vals = t.tabs[i].Snapshot(keys, vals)
	t.locks[i].RUnlock()
	return keys, vals
}

// Reserve pre-sizes every shard so that n total entries fit without
// rehashing, assuming an even spread.
func (t *Table[V]) Reserve(n int) {
	per := n/len(t.tabs) + 1
	for i := range t.tabs {
		t.locks[i].Lock()
		t.tabs[i].Reserve(per)
		t.locks[i].Unlock()
	}
}

// Clear removes every entry. It ends any migration in progress.
func (t *Table[V]) Clear() {
	for i := range t.tabs {
		t.locks[i].Lock()
		t.tabs[i].Clear()
		t.finished(i)
		t.locks[i].Unlock()
	}
}

// SetShardObservers installs per-shard observers: f is called once per
// shard index, before the shard's lock is taken, and a nil f removes
// them all. A shard's lookups run concurrently under its read lock, so
// its observer's Get must tolerate concurrent calls.
func (t *Table[V]) SetShardObservers(f func(shard int) container.Observer) {
	for i := range t.tabs {
		var o container.Observer
		if f != nil {
			o = f(i)
		}
		t.locks[i].Lock()
		t.tabs[i].SetObserver(o)
		t.locks[i].Unlock()
	}
}

// BeginMigration starts an incremental re-bucket of every shard under
// a new hash function: each shard opens its own dual-region migration
// and drains independently, so the per-step work stays bounded by one
// shard's buckets. Keys do not move between shards — routing keeps
// using the original hash, which stays correct (routing needs only
// determinism and spread) while probing inside each shard switches to
// the new function.
//
// Each shard's migrating flag mirrors its table's Migrating and is set
// and cleared under the shard's lock; the table's count of set flags
// answers Migrating without taking a lock.
func (t *Table[V]) BeginMigration(newHash hashes.Func) {
	for i := range t.tabs {
		t.locks[i].Lock()
		t.tabs[i].BeginMigration(newHash)
		if !t.locks[i].migrating.Swap(true) {
			t.active.Add(1)
		}
		t.locks[i].Unlock()
	}
}

// finished clears shard i's migrating flag. The caller holds its lock.
func (t *Table[V]) finished(i int) {
	if t.locks[i].migrating.Swap(false) {
		t.active.Add(-1)
	}
}

// MigrateStep drains up to k retired buckets from one migrating shard,
// the first whose flag is set in a scan from a rotating start, and
// returns true while any shard is still migrating. The scan reads
// flags without locking, so a finished shard costs one atomic load.
func (t *Table[V]) MigrateStep(k int) bool {
	n := len(t.tabs)
	start := int(t.cursor.Add(1) - 1)
	for j := 0; j < n && t.active.Load() > 0; j++ {
		s := (start + j) & (n - 1)
		l := &t.locks[s]
		if !l.migrating.Load() {
			continue
		}
		l.Lock()
		stepped := l.migrating.Load() // another step may have finished it
		if stepped && !t.tabs[s].MigrateStep(k) {
			t.finished(s)
		}
		l.Unlock()
		if stepped {
			break
		}
	}
	return t.Migrating()
}

// Migrating reports whether any shard's migration is in progress.
func (t *Table[V]) Migrating() bool { return t.active.Load() > 0 }
