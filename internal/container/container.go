// Package container implements the hash-indexed containers the paper's
// driver exercises: string-keyed equivalents of std::unordered_map,
// unordered_set, unordered_multimap and unordered_multiset.
//
// The implementation mirrors the aspects of libstdc++ that the paper's
// measurements depend on:
//
//   - chained buckets with the bucket chosen as hash % bucket_count
//     (so even poorly-mixed hashes spread across buckets, the effect
//     RQ7 investigates);
//   - prime bucket counts growing roughly geometrically, rehashing
//     when the load factor would exceed 1;
//   - bucket introspection, so the driver can count bucket collisions
//     exactly as the paper does ("we iterate over the buckets logging
//     the number of keys inside the same bucket").
//
// The chains are stored flat, not as one allocation per bucket. Each
// bucket is an int32 head indexing one array of entries (hash, key,
// value: 32 bytes for an int value), a parallel int32 array links each
// entry to the next in its chain, and erased slots are zeroed and
// reused through a free list. Growth, migration and refills relink
// indices instead of allocating per bucket. Chains keep insertion
// order, so bucket assignment, B-Coll and iteration order are those of
// a slice-per-bucket table. The int32 indices limit one table to
// math.MaxInt32 entries; a sharded container's limit is that times its
// shard count.
//
// The Indexer hook reproduces RQ7's "low-mixing container": an indexer
// that discards low-order hash bits before the modulo.
package container

import (
	"math"

	"github.com/sepe-go/sepe/internal/hashes"
)

// Indexer maps a 64-bit hash to a bucket in [0, buckets).
type Indexer func(hash uint64, buckets int) int

// ModIndexer is the libstdc++ policy: hash % buckets.
func ModIndexer(hash uint64, buckets int) int {
	return int(hash % uint64(buckets))
}

// HighBitsIndexer returns RQ7's low-mixing policy: the low `discard`
// bits of the hash are dropped before the modulo, so only the
// 64-discard most significant bits select the bucket.
func HighBitsIndexer(discard uint) Indexer {
	return func(hash uint64, buckets int) int {
		return int((hash >> discard) % uint64(buckets))
	}
}

// Hooks observes table operations for the telemetry layer. Every
// field is optional; a table with a nil Hooks pointer pays exactly one
// pointer comparison per operation and allocates nothing, so the
// containers stay measurement-grade when observation is off. The
// callbacks receive the operated-on key plus plain ints —
// implementations must not retain the key or allocate on the hot path
// (the telemetry layer's exemplars copy a key only when it sets a new
// maximum).
//
// Probe counts are the number of chain entries examined by the
// operation — the runtime counterpart of the offline MaxBucketLen
// measurement. Collision deltas maintain the paper's B-Coll
// incrementally: +1 when an insert lands in an occupied bucket,
// negative when an erase shortens a shared chain, and an exact recount
// after each rehash (OnRehash's second argument).
type Hooks struct {
	// OnPut fires after an insert or replace of key: probes entries
	// were examined, and the bucket-collision count changed by
	// collDelta (0 or 1).
	OnPut func(key string, probes, collDelta int)
	// OnGet fires after a lookup of key (get, count, multimap GetAll).
	OnGet func(key string, probes int, found bool)
	// OnDelete fires after an erase of key: probes entries examined,
	// removed entries deleted, collision count changed by collDelta
	// (≤ 0).
	OnDelete func(key string, probes, removed, collDelta int)
	// OnRehash fires after the table rebuckets (growth or reserve),
	// with the new bucket count and an exact bucket-collision recount.
	OnRehash func(buckets, bucketCollisions int)
	// OnClear fires after the table is emptied.
	OnClear func()
	// OnMigrateStart fires when RehashInto retires the current region:
	// retired buckets will drain into fresh new ones.
	OnMigrateStart func(retired, fresh int)
	// OnMigrateDone fires when the last retired bucket has drained,
	// before the completion recount's OnRehash.
	OnMigrateDone func(buckets int)
}

// initialBuckets is the starting bucket count (libstdc++ starts at a
// small prime).
const initialBuckets = 13

// maxEntries is the per-table entry limit: slots are addressed by
// int32 indices, and -1 ends a chain.
const maxEntries = math.MaxInt32

// entry is one key/value pair. Its chain link lives in a parallel
// array, so entry[int] stays 32 bytes and never straddles a cache line.
type entry[V any] struct {
	hash uint64
	key  string
	val  V
}

// Table is the one chained-bucket table behind all four container
// kinds (multi selects the multimap/multiset semantics), stored flat: ents holds
// every entry, links[i] is the slot after ents[i] in its chain (or, for
// an erased slot, the next free one), and heads maps each bucket to
// its first slot. -1 ends a chain and marks an empty bucket. Inserts
// append at the chain tail and rehashes relink in old-bucket order, so
// every chain keeps insertion order.
//
// During a live migration (rehashInto) the table holds two head arrays
// over the same entries: `heads` indexed by the new hash function, and
// `old` indexed by the retired one. Operations consult both; each
// drain step relinks a few old buckets' entries into the new heads, so
// a container can swap hash functions under load without a
// stop-the-world rehash and without moving an entry.
//
// A Table is not safe for concurrent use; internal/shard stripes many
// of them behind locks.
type Table[V any] struct {
	hash  hashes.Func
	index Indexer
	heads []int32
	ents  []entry[V]
	links []int32
	free  int32 // first erased slot, -1 when none
	size  int
	multi bool
	hooks *Hooks

	// Migration state: nil/empty when no migration is in progress.
	oldHash  hashes.Func
	old      []int32
	drainPos int

	// swapped is set by the first migration: from then on hash is no
	// longer the function the table was created with, so the hashed
	// entry points recompute instead of trusting the
	// caller's value.
	swapped bool
}

// NewTable returns an empty table over hash; a nil index selects the
// libstdc++ modulo policy, and multi keeps duplicate keys.
func NewTable[V any](hash hashes.Func, index Indexer, multi bool) *Table[V] {
	if index == nil {
		index = ModIndexer
	}
	return &Table[V]{
		hash:  hash,
		index: index,
		heads: emptyBuckets(make([]int32, initialBuckets)),
		free:  -1,
		multi: multi,
	}
}

// emptyBuckets marks every bucket of heads empty and returns it.
func emptyBuckets(heads []int32) []int32 {
	for b := range heads {
		heads[b] = -1
	}
	return heads
}

func (t *Table[V]) bucketOf(h uint64) int { return t.index(h, len(t.heads)) }

// oldHead returns the retired-region bucket for key, with the hash its
// entries were stored under. Only valid while migrating.
func (t *Table[V]) oldHead(key string) (*int32, uint64) {
	oh := t.oldHash(key)
	return &t.old[t.index(oh, len(t.old))], oh
}

// slot returns n as the index of a new slot, panicking at the
// per-table limit rather than letting the int32 wrap.
func slot(n int) int32 {
	if n >= maxEntries {
		panic("container: table is full: math.MaxInt32 entries is the per-table limit of its int32 slot indices")
	}
	return int32(n)
}

// alloc stores e in an unlinked slot, reusing erased slots first, and
// returns the slot.
func (t *Table[V]) alloc(e entry[V]) int32 {
	if i := t.free; i >= 0 {
		t.free = t.links[i]
		t.ents[i] = e
		t.links[i] = -1
		return i
	}
	i := slot(len(t.ents))
	t.ents = append(t.ents, e)
	t.links = append(t.links, -1)
	return i
}

// release zeroes slot i, so it pins no key or value, and pushes it on
// the free list. The caller has already unlinked it.
func (t *Table[V]) release(i int32) {
	t.ents[i] = entry[V]{}
	t.links[i] = t.free
	t.free = i
}

// find walks the chain starting at slot head for key, stored under
// hash h. It returns the first matching slot, or -1, and the number of
// entries examined.
func (t *Table[V]) find(head int32, h uint64, key string) (int32, int) {
	n := 0
	for i := head; i >= 0; i = t.links[i] {
		n++
		if e := &t.ents[i]; e.hash == h && e.key == key {
			return i, n
		}
	}
	return -1, n
}

// findOld continues a lookup of key in the retired region, adding the
// entries it examines to probes. Only valid while migrating.
func (t *Table[V]) findOld(key string, probes int) (int32, int) {
	head, oh := t.oldHead(key)
	i, n := t.find(*head, oh, key)
	return i, probes + n
}

// linkTail appends the unlinked slot i to the chain at *head and
// returns the chain's previous length.
func (t *Table[V]) linkTail(head *int32, i int32) int {
	last, n := int32(-1), 0
	for j := *head; j >= 0; j = t.links[j] {
		last, n = j, n+1
	}
	if last < 0 {
		*head = i
	} else {
		t.links[last] = i
	}
	return n
}

// put inserts key→val under its precomputed hash h (h must equal
// t.hash(key); the sharded layer passes the value it already computed
// for shard routing, every other caller computes it on entry).
// Non-multi tables replace an existing mapping and report whether the
// key was new; multi tables always append.
func (t *Table[V]) put(h uint64, key string, val V) bool {
	b := t.bucketOf(h)
	if !t.multi {
		i, probes := t.find(t.heads[b], h, key)
		if i < 0 && t.old != nil {
			// The key may still live in the retired region; replacing
			// it there (instead of appending a shadowing entry) keeps
			// the table duplicate-free through the migration.
			i, probes = t.findOld(key, probes)
		}
		if i >= 0 {
			t.ents[i].val = val
			if t.hooks != nil && t.hooks.OnPut != nil {
				t.hooks.OnPut(key, probes, 0)
			}
			return false
		}
	}
	before := t.linkTail(&t.heads[b], t.alloc(entry[V]{hash: h, key: key, val: val}))
	t.size++
	if t.hooks != nil && t.hooks.OnPut != nil {
		probes := before
		if t.multi {
			probes = 0 // multi inserts append without comparing keys
		}
		delta := 0
		if before > 0 {
			delta = 1
		}
		t.hooks.OnPut(key, probes, delta)
	}
	if t.size > len(t.heads) { // max load factor 1, as libstdc++
		t.rehash(nextBucketCount(len(t.heads)))
	}
	return true
}

// get returns the first value mapped to key (stored under hash h).
func (t *Table[V]) get(h uint64, key string) (V, bool) {
	i, probes := t.find(t.heads[t.bucketOf(h)], h, key)
	if i < 0 && t.old != nil {
		i, probes = t.findOld(key, probes)
	}
	if t.hooks != nil && t.hooks.OnGet != nil {
		t.hooks.OnGet(key, probes, i >= 0)
	}
	if i < 0 {
		var zero V
		return zero, false
	}
	return t.ents[i].val, true
}

// gather counts the entries for key, stored under hash h, in the chain
// starting at slot head, appending their values to *out when out is
// not nil. It returns the matches and the entries examined.
func (t *Table[V]) gather(head int32, h uint64, key string, out *[]V) (matches, probes int) {
	for i := head; i >= 0; i = t.links[i] {
		probes++
		if e := &t.ents[i]; e.hash == h && e.key == key {
			matches++
			if out != nil {
				*out = append(*out, e.val)
			}
		}
	}
	return matches, probes
}

// gatherAll is gather over key's chains in both regions, reported to
// OnGet as one lookup. It returns the matches.
func (t *Table[V]) gatherAll(h uint64, key string, out *[]V) int {
	matches, probes := t.gather(t.heads[t.bucketOf(h)], h, key, out)
	if t.old != nil {
		head, oh := t.oldHead(key)
		m, p := t.gather(*head, oh, key, out)
		matches, probes = matches+m, probes+p
	}
	if t.hooks != nil && t.hooks.OnGet != nil {
		t.hooks.OnGet(key, probes, matches > 0)
	}
	return matches
}

// count returns the number of entries with the given key.
func (t *Table[V]) count(h uint64, key string) int { return t.gatherAll(h, key, nil) }

// collect returns every value mapped to key (multimap GetAll).
func (t *Table[V]) collect(h uint64, key string) []V {
	var out []V
	t.gatherAll(h, key, &out)
	return out
}

// unlink erases every entry for key, stored under hash h, from the
// chain at *head, returning entries examined, entries removed, and the
// bucket-collision delta.
func (t *Table[V]) unlink(head *int32, h uint64, key string) (probes, removed, collDelta int) {
	prev := int32(-1)
	for i := *head; i >= 0; {
		next := t.links[i]
		probes++
		if e := &t.ents[i]; e.hash == h && e.key == key {
			if prev < 0 {
				*head = next
			} else {
				t.links[prev] = next
			}
			t.release(i)
			removed++
		} else {
			prev = i
		}
		i = next
	}
	return probes, removed, max(probes-removed-1, 0) - max(probes-1, 0)
}

// del removes all entries with the given key, returning how many were
// removed (erase(key) semantics of the unordered containers).
func (t *Table[V]) del(h uint64, key string) int {
	probes, removed, collDelta := t.unlink(&t.heads[t.bucketOf(h)], h, key)
	if t.old != nil {
		head, oh := t.oldHead(key)
		p, r, c := t.unlink(head, oh, key)
		probes += p
		removed += r
		collDelta += c
	}
	t.size -= removed
	if t.hooks != nil && t.hooks.OnDelete != nil {
		t.hooks.OnDelete(key, probes, removed, collDelta)
	}
	return removed
}

// rehash relinks the live region's entries into n fresh buckets,
// allocating only the head array. To keep chain order, each new chain
// must list its entries as appending them in old-bucket order, each
// chain front to back, would. Prepending in exactly the reverse of that
// order gives the same chains in O(n): old buckets last to first, each
// chain reversed in place before it is relinked.
func (t *Table[V]) rehash(n int) {
	old := t.heads
	t.heads = emptyBuckets(make([]int32, n))
	for b := len(old) - 1; b >= 0; b-- {
		rev := int32(-1)
		for i := old[b]; i >= 0; {
			next := t.links[i]
			t.links[i] = rev
			rev, i = i, next
		}
		for i := rev; i >= 0; {
			next := t.links[i]
			nb := t.bucketOf(t.ents[i].hash)
			t.links[i] = t.heads[nb]
			t.heads[nb] = i
			i = next
		}
	}
	if t.hooks != nil && t.hooks.OnRehash != nil {
		// Rebucketing invalidates any incremental collision tracking;
		// hand the observer an exact recount (O(buckets), dwarfed by
		// the O(n) rehash itself).
		t.hooks.OnRehash(len(t.heads), t.bucketCollisions())
	}
}

// reserve grows the table so that n entries fit without rehashing
// (std::unordered_map::reserve).
func (t *Table[V]) reserve(n int) {
	if n <= len(t.heads) {
		return
	}
	t.rehash(nextPrime(n))
}

// rehashInto starts a live migration to newHash. The current buckets
// become the retired region; a fresh region sized for the table's
// population is indexed by newHash. Entries move over incrementally
// via drain, so no single operation pays an O(n) rehash.
func (t *Table[V]) rehashInto(newHash hashes.Func) {
	if t.old != nil {
		// A migration is already in flight: finish it first so the
		// table never holds three generations of buckets.
		t.drain(len(t.old))
	}
	t.oldHash = t.hash
	t.old = t.heads
	t.swapped = true
	t.drainPos = 0
	t.hash = newHash
	t.heads = emptyBuckets(make([]int32, nextPrime(max(2*t.size+1, initialBuckets))))
	if t.hooks != nil && t.hooks.OnMigrateStart != nil {
		t.hooks.OnMigrateStart(len(t.old), len(t.heads))
	}
}

// drain relinks up to k retired buckets' entries into the live region,
// returning true while the migration is still in progress. Each moved
// entry's hash is recomputed under the new function.
func (t *Table[V]) drain(k int) bool {
	if t.old == nil {
		return false
	}
	for ; k > 0 && t.drainPos < len(t.old); k-- {
		i := t.old[t.drainPos]
		t.old[t.drainPos] = -1
		t.drainPos++
		for i >= 0 {
			next := t.links[i]
			t.links[i] = -1
			e := &t.ents[i]
			e.hash = t.hash(e.key)
			t.linkTail(&t.heads[t.bucketOf(e.hash)], i)
			i = next
		}
	}
	if t.drainPos < len(t.old) {
		return true
	}
	// Migration complete: drop the retired region and let observers
	// recount, exactly as after a normal rehash.
	t.old, t.oldHash, t.drainPos = nil, nil, 0
	if t.hooks != nil && t.hooks.OnMigrateDone != nil {
		t.hooks.OnMigrateDone(len(t.heads))
	}
	if t.hooks != nil && t.hooks.OnRehash != nil {
		t.hooks.OnRehash(len(t.heads), t.bucketCollisions())
	}
	if t.size > len(t.heads) {
		t.rehash(nextBucketCount(len(t.heads)))
	}
	return false
}

// migrating reports whether a live migration is in progress.
func (t *Table[V]) migrating() bool { return t.old != nil }

// loadFactor returns size/buckets (std::unordered_map::load_factor).
func (t *Table[V]) loadFactor() float64 {
	return float64(t.size) / float64(len(t.heads))
}

// clear removes every entry, keeping the bucket array and the entry
// storage's capacity. Any in-flight migration ends: the retired region
// is dropped with the entries.
func (t *Table[V]) clear() {
	emptyBuckets(t.heads)
	clear(t.ents) // so dropped keys and values pin no memory
	t.ents, t.links, t.free = t.ents[:0], t.links[:0], -1
	t.old, t.oldHash, t.drainPos = nil, nil, 0
	t.size = 0
	if t.hooks != nil && t.hooks.OnClear != nil {
		t.hooks.OnClear()
	}
}

// bucketCollisions counts keys sharing a bucket with an earlier key:
// Σ max(0, len(bucket)−1), the paper's B-Coll measurement. Every entry
// but the first of each chain is one, so it is the entry count less
// the non-empty buckets of both regions.
func (t *Table[V]) bucketCollisions() int {
	n := t.size
	for _, heads := range [2][]int32{t.heads, t.old} {
		for _, i := range heads {
			if i >= 0 {
				n--
			}
		}
	}
	return n
}

// maxBucketLen returns the longest chain, a worst-case probe measure.
func (t *Table[V]) maxBucketLen() int {
	m := 0
	for _, heads := range [2][]int32{t.heads, t.old} {
		for _, head := range heads {
			n := 0
			for i := head; i >= 0; i = t.links[i] {
				n++
			}
			m = max(m, n)
		}
	}
	return m
}

func (t *Table[V]) forEach(f func(key string, val V)) {
	for _, heads := range [2][]int32{t.heads, t.old} {
		for _, head := range heads {
			for i := head; i >= 0; i = t.links[i] {
				f(t.ents[i].key, t.ents[i].val)
			}
		}
	}
}

// nextBucketCount returns the next prime ≥ 2n+1, the growth policy of
// libstdc++'s prime rehash policy.
func nextBucketCount(n int) int {
	return nextPrime(2*n + 1)
}

func nextPrime(n int) int {
	if n <= 2 {
		return 2
	}
	if n%2 == 0 {
		n++
	}
	for !isPrime(n) {
		n += 2
	}
	return n
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}
