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
// bucket is an int32 head indexing a slot, which holds an entry (hash,
// key, value: 32 bytes for an int value) and an int32 link to the next
// slot in its chain; erased slots are zeroed and reused through a free
// list. Growth, migration and refills relink indices instead of
// allocating per bucket. Chains keep insertion order, so bucket
// assignment, B-Coll and iteration order are those of a
// slice-per-bucket table. The int32 indices limit one table to
// math.MaxInt32 entries; a sharded container's limit is that times its
// shard count.
//
// Rehashes and migrations allocate only head arrays, as libstdc++'s
// rehash allocates only a bucket array. Slot storage is split at
// chunkSlots (S, 2048 slots). Slots below S live in one entry array and
// one parallel link array, which grow together, and only when full, to
// buckets + 1 slots: under max load factor 1 the most a table holds
// before its next rehash. Their growth to S slots allocates the first
// S-slot chunk, which backs them from then on; slots from S up live in
// further chunks, each holding its entries and their links, appended
// once and never copied. A large table's fill therefore allocates its
// slot storage once, plus the first segment's growth, and holds at
// most one partly used chunk of slack. A table with chunks reaches
// every slot through the chunk directory and a table without through
// its two arrays, so the slot accessor branches on the table's size,
// not the slot. (A migration to fewer buckets keeps every slot; erased
// slots refill first.)
//
// The bucket is always hash % bucket_count. RQ7's "low-mixing
// container", which drops low-order hash bits before the modulo, is a
// property of the hash the table is given: its callers shift the hash.
package container

import (
	"math"

	"github.com/sepe-go/sepe/internal/hashes"
)

// Observer receives a table's operations for the telemetry layer. A
// table with a nil Observer pays one comparison per operation and
// allocates nothing, so the containers stay measurement-grade when
// observation is off. Implementations must not retain the key or
// allocate on the hot path (the telemetry layer's exemplars copy a key
// only when it sets a new maximum).
//
// probes is the number of chain entries an operation examined — the
// runtime counterpart of the offline MaxBucketLen measurement.
// collDelta maintains the paper's B-Coll incrementally: +1 when an
// insert lands in an occupied bucket (else 0), ≤ 0 when an erase
// shortens a shared chain, and Rehash hands over an exact recount
// after every rebucketing (growth, reserve, a migration's end). Get
// covers get, count and GetAll; MigrateStart reports the retired and
// fresh bucket counts of a migration, MigrateDone the final one,
// before the completion recount's Rehash.
type Observer interface {
	Put(key string, probes, collDelta int)
	Get(key string, probes int)
	Delete(key string, probes, collDelta int)
	Rehash(bucketCollisions int)
	Clear()
	MigrateStart(retired, fresh int)
	MigrateDone(buckets int)
}

// initialBuckets is the starting bucket count (libstdc++ starts at a
// small prime).
const initialBuckets = 13

// maxEntries is the per-table entry limit: slots are addressed by
// int32 indices, and -1 ends a chain.
const maxEntries = math.MaxInt32

// chunkShift and chunkSlots split the slot storage: slots below
// chunkSlots (S) live in the first segment, the rest in S-slot chunks.
// S is a power of two so a chunk slot is a shift and a mask away, and
// it exceeds the table-hot workload's tables (about 1 Ki entries), so
// cache-resident tables never use the chunk directory.
const (
	chunkShift = 11
	chunkSlots = 1 << chunkShift
)

// entry is one key/value pair. Its chain link lives in a parallel
// array, so entry[int] stays 32 bytes and never straddles a cache line.
type entry[V any] struct {
	hash uint64
	key  string
	val  V
}

// chunk holds chunkSlots consecutive slots: their entries and their
// links. A chunk is allocated once and never copied.
type chunk[V any] struct {
	ents  [chunkSlots]entry[V]
	links [chunkSlots]int32
}

// Table is the one chained-bucket table behind all four container
// kinds (multi selects the multimap/multiset semantics), stored flat:
// slot i holds an entry and a link, the slot after it in its chain (or,
// for an erased slot, the next free one), both reached through at(i),
// and heads maps each bucket to its first slot. Slots below chunkSlots
// are ents[i] and links[i], which chunks[0] backs once they reach
// chunkSlots; later slots live in later chunks. -1 ends a chain and
// marks an empty bucket. Inserts append at the chain tail and rehashes
// relink in old-bucket order, so every chain keeps insertion order.
//
// During a live migration (rehashInto) the table holds two head arrays
// over the same entries: `heads` indexed by the new hash function, and
// `old` indexed by the retired one. Operations consult both; each
// drain step relinks a few old buckets' entries into the new heads, so
// a container can swap hash functions under load without a
// stop-the-world rehash and without moving an entry.
//
// A drain step first rehashes a run of slots in slot order, ahead of
// the relink: a cursor, hashPos, runs over the slots the table held
// when the migration began, storing each entry's hash under the new
// function. Relinking then walks old buckets as before but reuses the
// hash already in place below the cursor, so most entries are hashed
// in a sequential sweep over the slots and the key bytes instead
// of a bucket-order random walk. A retired entry therefore holds its
// new hash below the cursor and its old one at or above it; the walks
// over `old` compare against the hash the slot holds, and the
// live-region loops are untouched (every live entry holds its new
// hash, which the sweep rewrites unchanged).
//
// A Table is not safe for concurrent use; internal/shard stripes many
// of them behind locks.
type Table[V any] struct {
	hash   hashes.Func
	heads  []int32
	ents   []entry[V] // slots below chunkSlots
	links  []int32
	chunks []*chunk[V] // chunks[c] holds slots chunkSlots·c on; chunks[0] backs ents and links
	slots  int32       // slots handed out, erased ones included
	free   int32       // first erased slot, -1 when none
	size   int
	obs    Observer

	// Migration state: nil/empty when no migration is in progress.
	// Slots below hashPos hold their hash under the new function;
	// hashEnd is the slot count when the migration began, so every
	// retired entry lies below it. Both are slot indices, int32 like
	// links and free, which also keeps a Table[int] within the
	// 192-byte allocation size class.
	oldHash  hashes.Func
	old      []int32
	drainPos int
	hashPos  int32
	hashEnd  int32

	// swapped is set by the first migration: from then on hash is no
	// longer the function the table was created with, so the hashed
	// entry points recompute instead of trusting the
	// caller's value.
	swapped bool
	multi   bool
}

// NewTable returns an empty table over hash; multi keeps duplicate
// keys.
func NewTable[V any](hash hashes.Func, multi bool) *Table[V] {
	return &Table[V]{
		hash:  hash,
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

func (t *Table[V]) bucketOf(h uint64) uint64 { return h % uint64(len(t.heads)) }

// oldHead returns the retired-region bucket for key, with the hash its
// entries were stored under. Only valid while migrating.
func (t *Table[V]) oldHead(key string) (*int32, uint64) {
	oh := t.oldHash(key)
	return &t.old[oh%uint64(len(t.old))], oh
}

// slot returns n as the index of a new slot, panicking at the
// per-table limit rather than letting the int32 wrap.
func slot(n int) int32 {
	if n >= maxEntries {
		panic("container: table is full: math.MaxInt32 entries is the per-table limit of its int32 slot indices")
	}
	return int32(n)
}

// at returns slot i's entry and chain link. A table without chunks
// indexes its first segment, one with chunks the chunk directory for
// every slot, so the branch follows the table's size, not the slot,
// and a chain walk never mispredicts it. Chain walks take the entry
// and the link from one call.
func (t *Table[V]) at(i int32) (*entry[V], *int32) {
	if t.chunks == nil {
		return &t.ents[i], &t.links[i]
	}
	c := t.chunks[i>>chunkShift]
	return &c.ents[i&(chunkSlots-1)], &c.links[i&(chunkSlots-1)]
}

// link returns slot i's chain link.
func (t *Table[V]) link(i int32) *int32 {
	if t.chunks == nil {
		return &t.links[i]
	}
	return &t.chunks[i>>chunkShift].links[i&(chunkSlots-1)]
}

// alloc stores e in an unlinked slot, reusing erased slots first, and
// returns the slot. A new slot below chunkSlots extends the first
// segment; from chunkSlots up, a slot that starts a chunk appends one
// unless Clear kept it.
func (t *Table[V]) alloc(e entry[V]) int32 {
	i := t.free
	if i >= 0 {
		t.free = *t.link(i)
	} else {
		i = slot(int(t.slots))
		t.slots++
		if i < chunkSlots {
			if len(t.ents) == cap(t.ents) {
				t.growFirst()
			}
			t.ents, t.links = t.ents[:i+1], t.links[:i+1]
		} else if int(i>>chunkShift) == len(t.chunks) {
			t.chunks = append(t.chunks, new(chunk[V]))
		}
	}
	ent, link := t.at(i)
	*ent, *link = e, -1
	return i
}

// growFirst reallocates the full first segment's entry and link arrays
// together, with room for len(heads)+1 slots, capped at chunkSlots:
// put allocates a slot before its load check, so that is the most the
// table holds before its next rehash. The arrays are full only when no
// slot is free, so they hold the table's size, which put keeps within
// len(heads): the new capacity exceeds the old. The growth to
// chunkSlots allocates chunk 0, whose arrays the segment then uses.
func (t *Table[V]) growFirst() {
	var ents []entry[V]
	var links []int32
	if n := len(t.heads) + 1; n < chunkSlots {
		ents, links = make([]entry[V], n), make([]int32, n)
	} else {
		c := new(chunk[V])
		t.chunks = append(t.chunks, c)
		ents, links = c.ents[:], c.links[:]
	}
	copy(ents, t.ents)
	copy(links, t.links)
	t.ents, t.links = ents[:len(t.ents)], links[:len(t.links)]
}

// release zeroes slot i, so it pins no key or value, and pushes it on
// the free list. The caller has already unlinked it.
func (t *Table[V]) release(i int32) {
	e, link := t.at(i)
	*e, *link = entry[V]{}, t.free
	t.free = i
}

// find walks the chain starting at slot head for key, stored under
// hash h. It returns the first matching slot, or -1, and the number of
// entries examined.
func (t *Table[V]) find(head int32, h uint64, key string) (int32, int) {
	n := 0
	for i := head; i >= 0; {
		e, link := t.at(i)
		n++
		if e.hash == h && e.key == key {
			return i, n
		}
		i = *link
	}
	return -1, n
}

// retiredHash returns the hash retired slot i holds for a key whose
// new hash is h and old hash oh: the new one below the rehash cursor,
// the old one at or above it. Only valid while migrating.
func (t *Table[V]) retiredHash(i int32, h, oh uint64) uint64 {
	if i < t.hashPos {
		return h
	}
	return oh
}

// findOld continues a lookup of key, whose new hash is h, in the
// retired region, adding the entries it examines to probes. Only valid
// while migrating.
func (t *Table[V]) findOld(h uint64, key string, probes int) (int32, int) {
	head, oh := t.oldHead(key)
	for i := *head; i >= 0; {
		e, link := t.at(i)
		probes++
		if e.hash == t.retiredHash(i, h, oh) && e.key == key {
			return i, probes
		}
		i = *link
	}
	return -1, probes
}

// linkTail appends the unlinked slot i to the chain at *head and
// returns the chain's previous length.
func (t *Table[V]) linkTail(head *int32, i int32) int {
	last, n := int32(-1), 0
	for j := *head; j >= 0; j = *t.link(j) {
		last, n = j, n+1
	}
	if last < 0 {
		*head = i
	} else {
		*t.link(last) = i
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
			i, probes = t.findOld(h, key, probes)
		}
		if i >= 0 {
			e, _ := t.at(i)
			e.val = val
			if t.obs != nil {
				t.obs.Put(key, probes, 0)
			}
			return false
		}
	}
	before := t.linkTail(&t.heads[b], t.alloc(entry[V]{hash: h, key: key, val: val}))
	t.size++
	if t.obs != nil {
		probes := before
		if t.multi {
			probes = 0 // multi inserts append without comparing keys
		}
		t.obs.Put(key, probes, min(before, 1))
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
		i, probes = t.findOld(h, key, probes)
	}
	if t.obs != nil {
		t.obs.Get(key, probes)
	}
	if i < 0 {
		var zero V
		return zero, false
	}
	e, _ := t.at(i)
	return e.val, true
}

// gather counts the entries for key, stored under hash h, in the chain
// starting at slot head, appending their values to *out when out is
// not nil. It returns the matches and the entries examined.
func (t *Table[V]) gather(head int32, h uint64, key string, out *[]V) (matches, probes int) {
	for i := head; i >= 0; {
		e, link := t.at(i)
		probes++
		if e.hash == h && e.key == key {
			matches++
			if out != nil {
				*out = append(*out, e.val)
			}
		}
		i = *link
	}
	return matches, probes
}

// gatherOld is gather over key's retired chain, for a key whose new
// hash is h. Only valid while migrating.
func (t *Table[V]) gatherOld(h uint64, key string, out *[]V) (matches, probes int) {
	head, oh := t.oldHead(key)
	for i := *head; i >= 0; {
		e, link := t.at(i)
		probes++
		if e.hash == t.retiredHash(i, h, oh) && e.key == key {
			matches++
			if out != nil {
				*out = append(*out, e.val)
			}
		}
		i = *link
	}
	return matches, probes
}

// gatherAll is gather over key's chains in both regions, reported to
// the observer as one lookup. It returns the matches.
func (t *Table[V]) gatherAll(h uint64, key string, out *[]V) int {
	matches, probes := t.gather(t.heads[t.bucketOf(h)], h, key, out)
	if t.old != nil {
		m, p := t.gatherOld(h, key, out)
		matches, probes = matches+m, probes+p
	}
	if t.obs != nil {
		t.obs.Get(key, probes)
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
		e, link := t.at(i)
		next := *link
		probes++
		if e.hash == h && e.key == key {
			if prev < 0 {
				*head = next
			} else {
				*t.link(prev) = next
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

// unlinkOld is unlink over key's retired chain, for a key whose new
// hash is h. Only valid while migrating.
func (t *Table[V]) unlinkOld(h uint64, key string) (probes, removed, collDelta int) {
	head, oh := t.oldHead(key)
	prev := int32(-1)
	for i := *head; i >= 0; {
		e, link := t.at(i)
		next := *link
		probes++
		if e.hash == t.retiredHash(i, h, oh) && e.key == key {
			if prev < 0 {
				*head = next
			} else {
				*t.link(prev) = next
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
		p, r, c := t.unlinkOld(h, key)
		probes += p
		removed += r
		collDelta += c
	}
	t.size -= removed
	if t.obs != nil {
		t.obs.Delete(key, probes, collDelta)
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
			link := t.link(i)
			next := *link
			*link = rev
			rev, i = i, next
		}
		for i := rev; i >= 0; {
			e, link := t.at(i)
			next := *link
			nb := t.bucketOf(e.hash)
			*link = t.heads[nb]
			t.heads[nb] = i
			i = next
		}
	}
	if t.obs != nil {
		// Rebucketing invalidates any incremental collision tracking;
		// hand the observer an exact recount (O(buckets), dwarfed by
		// the O(n) rehash itself).
		t.obs.Rehash(t.bucketCollisions())
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
//
// The one exception is a swap that arrives while a migration is still
// in flight: that call finishes the old migration synchronously. It
// pays for what is left of it, at most one rehash of each slot the
// sweep has not reached and one relink of each retired bucket, which
// in the worst case is the cost of a full stop-the-world rehash.
func (t *Table[V]) rehashInto(newHash hashes.Func) {
	if t.old != nil {
		// A migration is already in flight: finish it first so the
		// table never holds three generations of buckets.
		t.drain(len(t.old))
	}
	t.oldHash = t.hash
	t.old = t.heads
	t.swapped = true
	t.drainPos, t.hashPos, t.hashEnd = 0, 0, t.slots
	t.hash = newHash
	t.heads = emptyBuckets(make([]int32, nextPrime(max(2*t.size+1, initialBuckets))))
	if t.obs != nil {
		t.obs.MigrateStart(len(t.old), len(t.heads))
	}
}

// drainAhead is how many slots a drain step rehashes in slot order per
// retired bucket it relinks. At load factor ≤ 1 there are no more
// slots than retired buckets, so the sweep passes every slot within
// the first quarter of the relink.
const drainAhead = 4

// drain relinks up to k retired buckets' entries into the live region,
// returning true while the migration is still in progress. It first
// rehashes up to drainAhead·k slots in slot order, free and live slots
// included (a free slot's key is empty and alloc overwrites its hash;
// a live entry's new hash is the one it holds). A relinked entry the
// sweep has not reached yet is hashed on the spot.
func (t *Table[V]) drain(k int) bool {
	if t.old == nil {
		return false
	}
	for end := int32(min(int(t.hashPos)+drainAhead*k, int(t.hashEnd))); t.hashPos < end; t.hashPos++ {
		e, _ := t.at(t.hashPos)
		e.hash = t.hash(e.key)
	}
	for ; k > 0 && t.drainPos < len(t.old); k-- {
		i := t.old[t.drainPos]
		t.old[t.drainPos] = -1
		t.drainPos++
		for i >= 0 {
			e, link := t.at(i)
			next := *link
			*link = -1
			if i >= t.hashPos {
				e.hash = t.hash(e.key)
			}
			t.linkTail(&t.heads[t.bucketOf(e.hash)], i)
			i = next
		}
	}
	if t.drainPos < len(t.old) {
		return true
	}
	// Migration complete: drop the retired region and let observers
	// recount, exactly as after a normal rehash.
	t.old, t.oldHash = nil, nil
	t.drainPos, t.hashPos, t.hashEnd = 0, 0, 0
	if t.obs != nil {
		t.obs.MigrateDone(len(t.heads))
		t.obs.Rehash(t.bucketCollisions())
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

// clear removes every entry, keeping the bucket array and the slot
// storage: the first segment's capacity and every chunk. Any in-flight
// migration ends: the retired region is dropped with the entries.
func (t *Table[V]) clear() {
	emptyBuckets(t.heads)
	clear(t.ents) // so dropped keys and values pin no memory
	for _, c := range t.chunks {
		clear(c.ents[:])
	}
	t.ents, t.links, t.slots, t.free = t.ents[:0], t.links[:0], 0, -1
	t.old, t.oldHash = nil, nil
	t.drainPos, t.hashPos, t.hashEnd = 0, 0, 0
	t.size = 0
	if t.obs != nil {
		t.obs.Clear()
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
			for i := head; i >= 0; i = *t.link(i) {
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
			for i := head; i >= 0; i = *t.link(i) {
				e, _ := t.at(i)
				f(e.key, e.val)
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
