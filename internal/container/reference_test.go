package container

import "github.com/sepe-go/sepe/internal/hashes"

// refTable is the container's former storage layout, kept verbatim as
// the oracle FuzzTableOps compares the flat table against: one
// []entry slice per bucket, appended to on insert, compacted on erase
// and rebuilt on every rehash and migration drain. Only the type and
// helper names and the observer calls differ from the original.
//
// During a live migration (rehashInto) the table holds two bucket
// regions: `buckets` indexed by the new hash function, and `old`
// indexed by the retired one. Operations consult both; each drain
// step moves a few old buckets across, so a container can swap hash
// functions under load without a stop-the-world rehash.
type refTable[V any] struct {
	hash    hashes.Func
	buckets [][]entry[V]
	size    int
	multi   bool
	obs     Observer

	// Migration state: nil/empty when no migration is in progress.
	oldHash  hashes.Func
	old      [][]entry[V]
	drainPos int
}

func newRefTable[V any](hash hashes.Func, multi bool) *refTable[V] {
	return &refTable[V]{
		hash:    hash,
		buckets: make([][]entry[V], initialBuckets),
		multi:   multi,
	}
}

func (t *refTable[V]) bucketOf(h uint64) uint64 { return h % uint64(len(t.buckets)) }

// oldBucket returns the retired-region chain for key, with the hash
// the chain's entries were stored under. Only valid while migrating.
func (t *refTable[V]) oldBucket(key string) (*[]entry[V], uint64) {
	oh := t.oldHash(key)
	return &t.old[oh%uint64(len(t.old))], oh
}

// put inserts key→val under its precomputed hash h (h must equal
// t.hash(key); the sharded layer passes the value it already computed
// for shard routing, every other caller computes it on entry).
// Non-multi tables replace an existing mapping and report whether the
// key was new; multi tables always append.
func (t *refTable[V]) put(h uint64, key string, val V) bool {
	b := t.bucketOf(h)
	if !t.multi {
		chain := t.buckets[b]
		for i := range chain {
			if chain[i].hash == h && chain[i].key == key {
				chain[i].val = val
				if t.obs != nil {
					t.obs.Put(key, i+1, 0)
				}
				return false
			}
		}
		if t.old != nil {
			// The key may still live in the retired region; replacing
			// it there (instead of appending a shadowing entry) keeps
			// the table duplicate-free through the migration.
			ochain, oh := t.oldBucket(key)
			for i := range *ochain {
				if (*ochain)[i].hash == oh && (*ochain)[i].key == key {
					(*ochain)[i].val = val
					if t.obs != nil {
						t.obs.Put(key, len(chain)+i+1, 0)
					}
					return false
				}
			}
		}
	}
	before := len(t.buckets[b])
	t.buckets[b] = append(t.buckets[b], entry[V]{hash: h, key: key, val: val})
	t.size++
	if t.obs != nil {
		probes := before
		if t.multi {
			probes = 0 // multi inserts append without scanning
		}
		delta := 0
		if before > 0 {
			delta = 1
		}
		t.obs.Put(key, probes, delta)
	}
	if t.size > len(t.buckets) { // max load factor 1, as libstdc++
		t.rehash(nextBucketCount(len(t.buckets)))
	}
	return true
}

// get returns the first value mapped to key (stored under hash h).
func (t *refTable[V]) get(h uint64, key string) (V, bool) {
	chain := t.buckets[t.bucketOf(h)]
	for i := range chain {
		if chain[i].hash == h && chain[i].key == key {
			if t.obs != nil {
				t.obs.Get(key, i+1)
			}
			return chain[i].val, true
		}
	}
	probes := len(chain)
	if t.old != nil {
		ochain, oh := t.oldBucket(key)
		for i := range *ochain {
			if (*ochain)[i].hash == oh && (*ochain)[i].key == key {
				if t.obs != nil {
					t.obs.Get(key, probes+i+1)
				}
				return (*ochain)[i].val, true
			}
		}
		probes += len(*ochain)
	}
	if t.obs != nil {
		t.obs.Get(key, probes)
	}
	var zero V
	return zero, false
}

// count returns the number of entries with the given key.
func (t *refTable[V]) count(h uint64, key string) int {
	chain := t.buckets[t.bucketOf(h)]
	n := 0
	for i := range chain {
		if chain[i].hash == h && chain[i].key == key {
			n++
		}
	}
	probes := len(chain)
	if t.old != nil {
		ochain, oh := t.oldBucket(key)
		for i := range *ochain {
			if (*ochain)[i].hash == oh && (*ochain)[i].key == key {
				n++
			}
		}
		probes += len(*ochain)
	}
	if t.obs != nil {
		t.obs.Get(key, probes)
	}
	return n
}

// collect returns every value mapped to key (multimap GetAll).
func (t *refTable[V]) collect(h uint64, key string) []V {
	chain := t.buckets[t.bucketOf(h)]
	var out []V
	for i := range chain {
		if chain[i].hash == h && chain[i].key == key {
			out = append(out, chain[i].val)
		}
	}
	probes := len(chain)
	if t.old != nil {
		ochain, oh := t.oldBucket(key)
		for i := range *ochain {
			if (*ochain)[i].hash == oh && (*ochain)[i].key == key {
				out = append(out, (*ochain)[i].val)
			}
		}
		probes += len(*ochain)
	}
	if t.obs != nil {
		t.obs.Get(key, probes)
	}
	return out
}

// refDelFrom erases key (stored under hash h) from one bucket chain,
// returning entries examined, entries removed, and the bucket-collision
// delta.
func refDelFrom[V any](bucket *[]entry[V], h uint64, key string) (probes, removed, collDelta int) {
	chain := *bucket
	kept := chain[:0]
	for i := range chain {
		if chain[i].hash == h && chain[i].key == key {
			removed++
			continue
		}
		kept = append(kept, chain[i])
	}
	if removed > 0 {
		// Clear the tail so removed values do not pin memory.
		for i := len(kept); i < len(chain); i++ {
			chain[i] = entry[V]{}
		}
		*bucket = kept
	}
	before, after := len(chain)-1, len(chain)-removed-1
	if before < 0 {
		before = 0
	}
	if after < 0 {
		after = 0
	}
	return len(chain), removed, after - before
}

// del removes all entries with the given key, returning how many were
// removed (erase(key) semantics of the unordered containers).
func (t *refTable[V]) del(h uint64, key string) int {
	probes, removed, collDelta := refDelFrom(&t.buckets[t.bucketOf(h)], h, key)
	if t.old != nil {
		ochain, oh := t.oldBucket(key)
		p, r, c := refDelFrom(ochain, oh, key)
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

func (t *refTable[V]) rehash(n int) {
	old := t.buckets
	t.buckets = make([][]entry[V], n)
	for _, chain := range old {
		for _, e := range chain {
			b := t.bucketOf(e.hash)
			t.buckets[b] = append(t.buckets[b], e)
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
func (t *refTable[V]) reserve(n int) {
	if n <= len(t.buckets) {
		return
	}
	t.rehash(nextPrime(n))
}

// rehashInto starts a live migration to newHash. The current buckets
// become the retired region; a fresh region sized for the table's
// population is indexed by newHash. Entries move over incrementally
// via drain, so no single operation pays an O(n) rehash.
func (t *refTable[V]) rehashInto(newHash hashes.Func) {
	if t.old != nil {
		// A migration is already in flight: finish it first so the
		// table never holds three generations of buckets.
		t.drain(len(t.old))
	}
	t.oldHash = t.hash
	t.old = t.buckets
	t.drainPos = 0
	t.hash = newHash
	n := 2*t.size + 1
	if n < initialBuckets {
		n = initialBuckets
	}
	t.buckets = make([][]entry[V], nextPrime(n))
	if t.obs != nil {
		t.obs.MigrateStart(len(t.old), len(t.buckets))
	}
}

// drain moves up to k retired buckets into the live region, returning
// true while the migration is still in progress. Each moved entry's
// hash is recomputed under the new function.
func (t *refTable[V]) drain(k int) bool {
	if t.old == nil {
		return false
	}
	for ; k > 0 && t.drainPos < len(t.old); k-- {
		chain := t.old[t.drainPos]
		t.old[t.drainPos] = nil
		t.drainPos++
		for _, e := range chain {
			e.hash = t.hash(e.key)
			b := t.bucketOf(e.hash)
			t.buckets[b] = append(t.buckets[b], e)
		}
	}
	if t.drainPos < len(t.old) {
		return true
	}
	// Migration complete: drop the retired region and let observers
	// recount, exactly as after a normal rehash.
	t.old, t.oldHash, t.drainPos = nil, nil, 0
	if t.obs != nil {
		t.obs.MigrateDone(len(t.buckets))
		t.obs.Rehash(t.bucketCollisions())
	}
	if t.size > len(t.buckets) {
		t.rehash(nextBucketCount(len(t.buckets)))
	}
	return false
}

// migrating reports whether a live migration is in progress.
func (t *refTable[V]) migrating() bool { return t.old != nil }

// loadFactor returns size/buckets (std::unordered_map::load_factor).
func (t *refTable[V]) loadFactor() float64 {
	return float64(t.size) / float64(len(t.buckets))
}

// clear removes every entry, keeping the bucket array. Any in-flight
// migration ends: the retired region is dropped with the entries.
func (t *refTable[V]) clear() {
	for i := range t.buckets {
		t.buckets[i] = nil
	}
	t.old, t.oldHash, t.drainPos = nil, nil, 0
	t.size = 0
	if t.obs != nil {
		t.obs.Clear()
	}
}

// bucketCollisions counts keys sharing a bucket with an earlier key:
// Σ max(0, len(bucket)−1), the paper's B-Coll measurement.
func (t *refTable[V]) bucketCollisions() int {
	n := 0
	for _, chain := range t.buckets {
		if len(chain) > 1 {
			n += len(chain) - 1
		}
	}
	for _, chain := range t.old {
		if len(chain) > 1 {
			n += len(chain) - 1
		}
	}
	return n
}

// maxBucketLen returns the longest chain, a worst-case probe measure.
func (t *refTable[V]) maxBucketLen() int {
	m := 0
	for _, chain := range t.buckets {
		if len(chain) > m {
			m = len(chain)
		}
	}
	for _, chain := range t.old {
		if len(chain) > m {
			m = len(chain)
		}
	}
	return m
}

func (t *refTable[V]) forEach(f func(key string, val V)) {
	for _, chain := range t.buckets {
		for i := range chain {
			f(chain[i].key, chain[i].val)
		}
	}
	for _, chain := range t.old {
		for i := range chain {
			f(chain[i].key, chain[i].val)
		}
	}
}

// refStats is stats for the oracle.
func refStats[V any](t *refTable[V]) Stats {
	return Stats{
		Size:             t.size,
		Buckets:          len(t.buckets),
		BucketCollisions: t.bucketCollisions(),
		MaxBucketLen:     t.maxBucketLen(),
	}
}
