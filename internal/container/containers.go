package container

import "github.com/sepe-go/sepe/internal/hashes"

// Kind names the four container shapes the paper's driver runs
// (Section 4's "Structure" parameter).
type Kind int

const (
	// MapKind corresponds to std::unordered_map.
	MapKind Kind = iota
	// SetKind corresponds to std::unordered_set.
	SetKind
	// MultiMapKind corresponds to std::unordered_multimap.
	MultiMapKind
	// MultiSetKind corresponds to std::unordered_multiset.
	MultiSetKind
)

// Kinds lists all four in the paper's order.
var Kinds = []Kind{MapKind, SetKind, MultiMapKind, MultiSetKind}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case MapKind:
		return "Map"
	case SetKind:
		return "Set"
	case MultiMapKind:
		return "MultiMap"
	case MultiSetKind:
		return "MultiSet"
	default:
		return "Kind?"
	}
}

// Stats exposes the bucket measurements the experiments record.
type Stats struct {
	Size             int
	Buckets          int
	BucketCollisions int
	MaxBucketLen     int
}

// Container is the uniform driver interface over the four shapes:
// insert / search / erase with std::unordered_* semantics.
type Container interface {
	Insert(key string)
	Search(key string) bool
	Erase(key string) int
	Len() int
	Stats() Stats
}

// New builds a container of the given kind over a hash function. Maps
// carry int values, sets carry none.
func New(k Kind, hash hashes.Func) Container {
	switch k {
	case MapKind:
		return NewTable[int](hash, false)
	case SetKind:
		return NewTable[struct{}](hash, false)
	case MultiMapKind:
		return NewTable[int](hash, true)
	case MultiSetKind:
		return NewTable[struct{}](hash, true)
	default:
		panic("container: unknown kind")
	}
}

// Put maps key to val and reports whether the key was new. A multi
// table always appends a duplicate; any other table replaces an
// existing mapping.
func (t *Table[V]) Put(key string, val V) bool { return t.put(t.hash(key), key, val) }

// Get returns the first value mapped to key.
func (t *Table[V]) Get(key string) (V, bool) { return t.get(t.hash(key), key) }

// Delete removes every entry for key, reporting how many went away.
func (t *Table[V]) Delete(key string) int { return t.del(t.hash(key), key) }

// Count returns the number of entries for key.
func (t *Table[V]) Count(key string) int { return t.count(t.hash(key), key) }

// GetAll returns every value mapped to key, in insertion order.
func (t *Table[V]) GetAll(key string) []V { return t.collect(t.hash(key), key) }

// Insert implements Container with a zero value.
func (t *Table[V]) Insert(key string) { var zero V; t.Put(key, zero) }

// Search implements Container.
func (t *Table[V]) Search(key string) bool { _, ok := t.Get(key); return ok }

// Erase implements Container.
func (t *Table[V]) Erase(key string) int { return t.Delete(key) }

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.size }

// Stats returns bucket measurements over both regions of a migration.
func (t *Table[V]) Stats() Stats {
	return Stats{
		Size:             t.size,
		Buckets:          len(t.heads),
		BucketCollisions: t.bucketCollisions(),
		MaxBucketLen:     t.maxBucketLen(),
	}
}

// Reserve pre-sizes the table for n entries.
func (t *Table[V]) Reserve(n int) { t.reserve(n) }

// LoadFactor returns entries per bucket.
func (t *Table[V]) LoadFactor() float64 { return t.loadFactor() }

// Clear removes every entry, keeping the bucket array.
func (t *Table[V]) Clear() { t.clear() }

// SetObserver installs (or, with nil, removes) the table's observer.
func (t *Table[V]) SetObserver(o Observer) { t.obs = o }

// Snapshot appends every entry to keys and vals, in iteration order,
// and returns the extended slices. Callers iterate the copy, so their
// callbacks may mutate the table.
func (t *Table[V]) Snapshot(keys []string, vals []V) ([]string, []V) {
	t.forEach(func(k string, v V) {
		keys = append(keys, k)
		vals = append(vals, v)
	})
	return keys, vals
}

// BeginMigration starts an incremental re-bucket under a new hash
// function. Entries move over in MigrateStep batches, so no single
// operation pays a stop-the-world rehash; lookups and erases consult
// both regions until the migration drains.
func (t *Table[V]) BeginMigration(newHash hashes.Func) { t.rehashInto(newHash) }

// MigrateStep drains up to k retired buckets, returning true while
// the migration is still in progress.
func (t *Table[V]) MigrateStep(k int) bool { return t.drain(k) }

// Migrating reports whether an incremental migration is in progress.
func (t *Table[V]) Migrating() bool { return t.migrating() }

// Hashed entry points. They take the key's hash under the table's
// current function, so a caller that already holds it does not hash
// twice: the sharded layer, which routes with the hash, and the
// single-owner fast path. The chains compare stored hashes before
// keys and the bucket comes from h, so h must be Hash(key) — or
// CurrentHash of the creation-time hash.

// Hash returns key's hash under the table's current function.
func (t *Table[V]) Hash(key string) uint64 { return t.hash(key) }

// CurrentHash returns key's hash under the table's current function,
// given h, its hash under the function the table was created with.
// Until a migration swaps the function that is h itself.
func (t *Table[V]) CurrentHash(h uint64, key string) uint64 {
	if t.swapped {
		return t.hash(key)
	}
	return h
}

// PutHashed is Put with key's current hash precomputed.
func (t *Table[V]) PutHashed(h uint64, key string, val V) bool { return t.put(h, key, val) }

// GetHashed is Get with key's current hash precomputed.
func (t *Table[V]) GetHashed(h uint64, key string) (V, bool) { return t.get(h, key) }

// DeleteHashed is Delete with key's current hash precomputed.
func (t *Table[V]) DeleteHashed(h uint64, key string) int { return t.del(h, key) }

// CountHashed is Count with key's current hash precomputed.
func (t *Table[V]) CountHashed(h uint64, key string) int { return t.count(h, key) }

// GetAllHashed is GetAll with key's current hash precomputed.
func (t *Table[V]) GetAllHashed(h uint64, key string) []V { return t.collect(h, key) }
