package sepe_test

import (
	"fmt"
	"testing"

	"github.com/sepe-go/sepe"
)

// bruteBColl recomputes bucket collisions from first principles: hash
// every live entry (with multiplicity), index modulo the current
// bucket count, and count entries landing in an occupied bucket.
func bruteBColl(hash sepe.HashFunc, entries map[string]int, buckets int) int {
	perBucket := map[int]int{}
	for key, mult := range entries {
		b := int(hash(key) % uint64(buckets))
		perBucket[b] += mult
	}
	coll := 0
	for _, n := range perBucket {
		coll += n - 1
	}
	return coll
}

// statser is the surface every container shares for this test.
type statser interface {
	Stats() sepe.TableStats
	Len() int
}

func TestTableStatsAllContainers(t *testing.T) {
	hash := sepe.STLHash
	keys := make([]string, 400)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}

	cases := []struct {
		name string
		// build inserts every key (multis insert duplicates for every
		// third key), returning the container and the live entry
		// multiset.
		build func() (statser, map[string]int)
		// del removes key from the container.
		del func(c statser, key string) int
		// clear empties the container.
		clear func(c statser)
	}{
		{
			name: "Map",
			build: func() (statser, map[string]int) {
				m := sepe.NewMap[int](hash)
				live := map[string]int{}
				for i, k := range keys {
					m.Put(k, i)
					live[k] = 1
				}
				return m, live
			},
			del:   func(c statser, key string) int { return c.(*sepe.Map[int]).Delete(key) },
			clear: func(c statser) { c.(*sepe.Map[int]).Clear() },
		},
		{
			name: "Set",
			build: func() (statser, map[string]int) {
				s := sepe.NewSet(hash)
				live := map[string]int{}
				for _, k := range keys {
					s.Add(k)
					live[k] = 1
				}
				return s, live
			},
			del:   func(c statser, key string) int { return c.(*sepe.Set).Delete(key) },
			clear: func(c statser) { c.(*sepe.Set).Clear() },
		},
		{
			name: "MultiMap",
			build: func() (statser, map[string]int) {
				m := sepe.NewMultiMap[int](hash)
				live := map[string]int{}
				for i, k := range keys {
					m.Put(k, i)
					live[k] = 1
					if i%3 == 0 {
						m.Put(k, i+1000)
						live[k] = 2
					}
				}
				return m, live
			},
			del:   func(c statser, key string) int { return c.(*sepe.MultiMap[int]).Delete(key) },
			clear: func(c statser) { c.(*sepe.MultiMap[int]).Clear() },
		},
		{
			name: "MultiSet",
			build: func() (statser, map[string]int) {
				s := sepe.NewMultiSet(hash)
				live := map[string]int{}
				for i, k := range keys {
					s.Add(k)
					live[k] = 1
					if i%3 == 0 {
						s.Add(k)
						live[k] = 2
					}
				}
				return s, live
			},
			del:   func(c statser, key string) int { return c.(*sepe.MultiSet).Delete(key) },
			clear: func(c statser) { c.(*sepe.MultiSet).Clear() },
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, live := tc.build()
			check := func(when string) {
				st := c.Stats()
				size := 0
				for _, m := range live {
					size += m
				}
				if st.Size != size || c.Len() != size {
					t.Fatalf("%s: Size=%d Len=%d, want %d", when, st.Size, c.Len(), size)
				}
				if want := bruteBColl(hash, live, st.Buckets); st.BucketCollisions != want {
					t.Fatalf("%s: BucketCollisions=%d, brute-force recount=%d",
						when, st.BucketCollisions, want)
				}
				if st.MaxBucketLen < 0 || (size > 0 && st.MaxBucketLen == 0) {
					t.Fatalf("%s: MaxBucketLen=%d with %d entries", when, st.MaxBucketLen, size)
				}
			}
			check("after inserts")

			for i := 0; i < len(keys); i += 4 {
				removed := tc.del(c, keys[i])
				if removed != live[keys[i]] {
					t.Fatalf("Delete(%q) removed %d, want %d", keys[i], removed, live[keys[i]])
				}
				delete(live, keys[i])
			}
			check("after deletes")

			tc.clear(c)
			live = map[string]int{}
			check("after Clear")

			st := c.Stats()
			if st.BucketCollisions != 0 || st.MaxBucketLen != 0 {
				t.Fatalf("after Clear: stats not zeroed: %+v", st)
			}
		})
	}
}

// TestShardedTableStatsMerge pins the public merge semantics of the
// sharded containers' Stats: at shard count 1 the merged view must
// equal a plain container fed identical operations (the regression
// guard for the MaxBucketLen max-vs-average fix), and at any shard
// count the additive fields must sum across ShardStats while
// MaxBucketLen is their maximum.
func TestShardedTableStatsMerge(t *testing.T) {
	hash := sepe.STLHash
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}

	single := sepe.NewMap[int](hash, sepe.Sharded(1))
	plain := sepe.NewMap[int](hash)
	for i, k := range keys {
		single.Put(k, i)
		plain.Put(k, i)
	}
	for i := 0; i < len(keys); i += 3 {
		single.Delete(keys[i])
		plain.Delete(keys[i])
	}
	if got, want := single.Stats(), plain.Stats(); got != want {
		t.Errorf("shard count 1: merged stats %+v != plain container stats %+v", got, want)
	}

	many := sepe.NewMap[int](hash, sepe.Sharded(8))
	for i, k := range keys {
		many.Put(k, i)
	}
	merged := many.Stats()
	var sumSize, sumBuckets, sumColl, maxChain int
	for _, s := range many.ShardStats() {
		sumSize += s.Size
		sumBuckets += s.Buckets
		sumColl += s.BucketCollisions
		if s.MaxBucketLen > maxChain {
			maxChain = s.MaxBucketLen
		}
	}
	if merged.Size != sumSize || merged.Buckets != sumBuckets || merged.BucketCollisions != sumColl {
		t.Errorf("additive fields: merged %+v, shard sums size=%d buckets=%d bcoll=%d",
			merged, sumSize, sumBuckets, sumColl)
	}
	if merged.MaxBucketLen != maxChain {
		t.Errorf("MaxBucketLen: merged %d, max across shards %d (must be max, not average)",
			merged.MaxBucketLen, maxChain)
	}
}
