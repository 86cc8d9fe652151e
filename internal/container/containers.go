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

// New builds a container of the given kind over a hash function; a nil
// indexer selects the libstdc++ modulo policy.
func New(k Kind, hash hashes.Func, index Indexer) Container {
	switch k {
	case MapKind:
		return NewMap[int](hash, index)
	case SetKind:
		return NewSet(hash, index)
	case MultiMapKind:
		return NewMultiMap[int](hash, index)
	case MultiSetKind:
		return NewMultiSet(hash, index)
	default:
		panic("container: unknown kind")
	}
}

// Map is the std::unordered_map equivalent.
type Map[V any] struct{ t *table[V] }

// NewMap returns an empty map using the given hash and indexer.
func NewMap[V any](hash hashes.Func, index Indexer) *Map[V] {
	return &Map[V]{t: newTable[V](hash, index, false)}
}

// Put maps key to val, replacing any existing mapping; it reports
// whether the key was new.
func (m *Map[V]) Put(key string, val V) bool { return m.t.put(m.t.hash(key), key, val) }

// Get returns the value mapped to key.
func (m *Map[V]) Get(key string) (V, bool) { return m.t.get(m.t.hash(key), key) }

// Delete removes the mapping, reporting how many entries went away.
func (m *Map[V]) Delete(key string) int { return m.t.del(m.t.hash(key), key) }

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.t.size }

// ForEach visits every entry in unspecified order.
func (m *Map[V]) ForEach(f func(key string, val V)) { m.t.forEach(f) }

// Stats returns bucket measurements.
func (m *Map[V]) Stats() Stats { return stats(m.t) }

// Reserve pre-sizes the table for n entries.
func (m *Map[V]) Reserve(n int) { m.t.reserve(n) }

// LoadFactor returns entries per bucket.
func (m *Map[V]) LoadFactor() float64 { return m.t.loadFactor() }

// Clear removes every entry, keeping the bucket array.
func (m *Map[V]) Clear() { m.t.clear() }

// SetHooks installs (or, with nil, removes) observation hooks.
func (m *Map[V]) SetHooks(h *Hooks) { m.t.hooks = h }

// BeginMigration starts an incremental re-bucket of the map under a
// new hash function. Entries move over in MigrateStep batches, so no
// single operation pays a stop-the-world rehash; lookups and erases
// consult both regions until the migration drains.
func (m *Map[V]) BeginMigration(newHash hashes.Func) { m.t.rehashInto(newHash) }

// MigrateStep drains up to k retired buckets, returning true while
// the migration is still in progress.
func (m *Map[V]) MigrateStep(k int) bool { return m.t.drain(k) }

// Migrating reports whether an incremental migration is in progress.
func (m *Map[V]) Migrating() bool { return m.t.migrating() }

// Insert implements Container with a zero value.
func (m *Map[V]) Insert(key string) { var zero V; m.t.put(m.t.hash(key), key, zero) }

// Search implements Container.
func (m *Map[V]) Search(key string) bool { _, ok := m.t.get(m.t.hash(key), key); return ok }

// Erase implements Container.
func (m *Map[V]) Erase(key string) int { return m.t.del(m.t.hash(key), key) }

// Set is the std::unordered_set equivalent.
type Set struct{ t *table[struct{}] }

// NewSet returns an empty set.
func NewSet(hash hashes.Func, index Indexer) *Set {
	return &Set{t: newTable[struct{}](hash, index, false)}
}

// Insert adds key.
func (s *Set) Insert(key string) { s.t.put(s.t.hash(key), key, struct{}{}) }

// Add adds key, reporting whether it was new.
func (s *Set) Add(key string) bool { return s.t.put(s.t.hash(key), key, struct{}{}) }

// Search reports membership.
func (s *Set) Search(key string) bool { _, ok := s.t.get(s.t.hash(key), key); return ok }

// Erase removes key.
func (s *Set) Erase(key string) int { return s.t.del(s.t.hash(key), key) }

// Len returns the number of members.
func (s *Set) Len() int { return s.t.size }

// Stats returns bucket measurements.
func (s *Set) Stats() Stats { return stats(s.t) }

// Reserve pre-sizes the table for n members.
func (s *Set) Reserve(n int) { s.t.reserve(n) }

// LoadFactor returns members per bucket.
func (s *Set) LoadFactor() float64 { return s.t.loadFactor() }

// Clear removes every member, keeping the bucket array.
func (s *Set) Clear() { s.t.clear() }

// SetHooks installs (or, with nil, removes) observation hooks.
func (s *Set) SetHooks(h *Hooks) { s.t.hooks = h }

// BeginMigration starts an incremental re-bucket under a new hash.
func (s *Set) BeginMigration(newHash hashes.Func) { s.t.rehashInto(newHash) }

// MigrateStep drains up to k retired buckets, returning true while
// the migration is still in progress.
func (s *Set) MigrateStep(k int) bool { return s.t.drain(k) }

// Migrating reports whether an incremental migration is in progress.
func (s *Set) Migrating() bool { return s.t.migrating() }

// MultiMap is the std::unordered_multimap equivalent: one key may map
// to several values.
type MultiMap[V any] struct{ t *table[V] }

// NewMultiMap returns an empty multimap.
func NewMultiMap[V any](hash hashes.Func, index Indexer) *MultiMap[V] {
	return &MultiMap[V]{t: newTable[V](hash, index, true)}
}

// Put adds one key→val entry (duplicates allowed).
func (m *MultiMap[V]) Put(key string, val V) { m.t.put(m.t.hash(key), key, val) }

// GetAll returns every value mapped to key.
func (m *MultiMap[V]) GetAll(key string) []V { return m.t.collect(m.t.hash(key), key) }

// Count returns the number of entries for key.
func (m *MultiMap[V]) Count(key string) int { return m.t.count(m.t.hash(key), key) }

// Delete removes all entries for key.
func (m *MultiMap[V]) Delete(key string) int { return m.t.del(m.t.hash(key), key) }

// Len returns the total entry count.
func (m *MultiMap[V]) Len() int { return m.t.size }

// Stats returns bucket measurements.
func (m *MultiMap[V]) Stats() Stats { return stats(m.t) }

// Clear removes every entry, keeping the bucket array.
func (m *MultiMap[V]) Clear() { m.t.clear() }

// SetHooks installs (or, with nil, removes) observation hooks.
func (m *MultiMap[V]) SetHooks(h *Hooks) { m.t.hooks = h }

// BeginMigration starts an incremental re-bucket under a new hash.
func (m *MultiMap[V]) BeginMigration(newHash hashes.Func) { m.t.rehashInto(newHash) }

// MigrateStep drains up to k retired buckets, returning true while
// the migration is still in progress.
func (m *MultiMap[V]) MigrateStep(k int) bool { return m.t.drain(k) }

// Migrating reports whether an incremental migration is in progress.
func (m *MultiMap[V]) Migrating() bool { return m.t.migrating() }

// Insert implements Container.
func (m *MultiMap[V]) Insert(key string) { var zero V; m.t.put(m.t.hash(key), key, zero) }

// Search implements Container.
func (m *MultiMap[V]) Search(key string) bool { _, ok := m.t.get(m.t.hash(key), key); return ok }

// Erase implements Container.
func (m *MultiMap[V]) Erase(key string) int { return m.t.del(m.t.hash(key), key) }

// MultiSet is the std::unordered_multiset equivalent.
type MultiSet struct{ t *table[struct{}] }

// NewMultiSet returns an empty multiset.
func NewMultiSet(hash hashes.Func, index Indexer) *MultiSet {
	return &MultiSet{t: newTable[struct{}](hash, index, true)}
}

// Insert adds one occurrence of key.
func (s *MultiSet) Insert(key string) { s.t.put(s.t.hash(key), key, struct{}{}) }

// Count returns the number of occurrences of key.
func (s *MultiSet) Count(key string) int { return s.t.count(s.t.hash(key), key) }

// Search reports whether key occurs at least once.
func (s *MultiSet) Search(key string) bool { _, ok := s.t.get(s.t.hash(key), key); return ok }

// Erase removes all occurrences of key.
func (s *MultiSet) Erase(key string) int { return s.t.del(s.t.hash(key), key) }

// Len returns the total occurrence count.
func (s *MultiSet) Len() int { return s.t.size }

// Stats returns bucket measurements.
func (s *MultiSet) Stats() Stats { return stats(s.t) }

// Clear removes every occurrence, keeping the bucket array.
func (s *MultiSet) Clear() { s.t.clear() }

// SetHooks installs (or, with nil, removes) observation hooks.
func (s *MultiSet) SetHooks(h *Hooks) { s.t.hooks = h }

// BeginMigration starts an incremental re-bucket under a new hash.
func (s *MultiSet) BeginMigration(newHash hashes.Func) { s.t.rehashInto(newHash) }

// MigrateStep drains up to k retired buckets, returning true while
// the migration is still in progress.
func (s *MultiSet) MigrateStep(k int) bool { return s.t.drain(k) }

// Migrating reports whether an incremental migration is in progress.
func (s *MultiSet) Migrating() bool { return s.t.migrating() }

// Precomputed-hash entry points. The sharded layer routes a key to a
// shard with the top bits of its hash and must not pay for hashing
// twice, so each container exposes its operations with the hash
// supplied by the caller. The contract is strict: h must equal the
// value the container's own hash function returns for key — the
// chains compare stored hashes before keys, and the bucket index is
// derived from h. Passing any other value silently corrupts lookups.
// Hashed entry points must not be mixed with BeginMigration: once the
// table's hash function changes, only the plain methods know the
// current function.

// PutHashed is Put with the key's hash precomputed by the caller.
func (m *Map[V]) PutHashed(h uint64, key string, val V) bool { return m.t.put(h, key, val) }

// GetHashed is Get with the key's hash precomputed by the caller.
func (m *Map[V]) GetHashed(h uint64, key string) (V, bool) { return m.t.get(h, key) }

// DeleteHashed is Delete with the key's hash precomputed by the caller.
func (m *Map[V]) DeleteHashed(h uint64, key string) int { return m.t.del(h, key) }

// AddHashed is Add with the key's hash precomputed by the caller.
func (s *Set) AddHashed(h uint64, key string) bool { return s.t.put(h, key, struct{}{}) }

// SearchHashed is Search with the key's hash precomputed by the caller.
func (s *Set) SearchHashed(h uint64, key string) bool { _, ok := s.t.get(h, key); return ok }

// EraseHashed is Erase with the key's hash precomputed by the caller.
func (s *Set) EraseHashed(h uint64, key string) int { return s.t.del(h, key) }

// PutHashed is Put with the key's hash precomputed by the caller.
func (m *MultiMap[V]) PutHashed(h uint64, key string, val V) { m.t.put(h, key, val) }

// GetAllHashed is GetAll with the key's hash precomputed by the caller.
func (m *MultiMap[V]) GetAllHashed(h uint64, key string) []V { return m.t.collect(h, key) }

// CountHashed is Count with the key's hash precomputed by the caller.
func (m *MultiMap[V]) CountHashed(h uint64, key string) int { return m.t.count(h, key) }

// DeleteHashed is Delete with the key's hash precomputed by the caller.
func (m *MultiMap[V]) DeleteHashed(h uint64, key string) int { return m.t.del(h, key) }

// InsertHashed is Insert with the key's hash precomputed by the caller.
func (s *MultiSet) InsertHashed(h uint64, key string) { s.t.put(h, key, struct{}{}) }

// CountHashed is Count with the key's hash precomputed by the caller.
func (s *MultiSet) CountHashed(h uint64, key string) int { return s.t.count(h, key) }

// SearchHashed is Search with the key's hash precomputed by the caller.
func (s *MultiSet) SearchHashed(h uint64, key string) bool { _, ok := s.t.get(h, key); return ok }

// EraseHashed is Erase with the key's hash precomputed by the caller.
func (s *MultiSet) EraseHashed(h uint64, key string) int { return s.t.del(h, key) }

func stats[V any](t *table[V]) Stats {
	return Stats{
		Size:             t.size,
		Buckets:          len(t.heads),
		BucketCollisions: t.bucketCollisions(),
		MaxBucketLen:     t.maxBucketLen(),
	}
}
