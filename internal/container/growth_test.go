package container

import (
	"testing"

	"github.com/sepe-go/sepe/internal/hashes"
)

// putTracked puts keys into tab, calling between after each put, and
// returns how many puts reallocated the slot arrays and how many
// rehashed the buckets. It fails t when a reallocation does not size
// both arrays to the bucket count the put started with, plus one.
func putTracked(t *testing.T, tab *Table[int], keys []string, between func()) (reallocs, rehashes int) {
	t.Helper()
	for i, k := range keys {
		buckets, slots := len(tab.heads), cap(tab.ents)
		tab.put(tab.hash(k), k, i)
		if cap(tab.ents) != slots {
			reallocs++
			if cap(tab.ents) != buckets+1 || cap(tab.links) != buckets+1 {
				t.Fatalf("put %d over %d buckets grew the slot arrays from %d to %d entries and %d links, want %d each",
					i, buckets, slots, cap(tab.ents), cap(tab.links), buckets+1)
			}
		}
		if len(tab.heads) != buckets {
			rehashes++
		}
		between()
	}
	return reallocs, rehashes
}

func migKeys(from, to int) []string {
	keys := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		keys = append(keys, migKey(i))
	}
	return keys
}

// TestFillReallocatesOncePerRehash pins the slot-array growth policy:
// a fill reallocates the entry and link arrays at most once more than
// it rehashes, each time to the most slots the table can hold before
// its next rehash.
func TestFillReallocatesOncePerRehash(t *testing.T) {
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
		tab := NewTable[int](hashes.STL, false)
		reallocs, rehashes := putTracked(t, tab, migKeys(0, n), func() {})
		if reallocs > rehashes+1 {
			t.Errorf("%d entries: %d slot reallocations for %d rehashes, want at most %d", n, reallocs, rehashes, rehashes+1)
		}
		if tab.size != n {
			t.Fatalf("%d entries: size %d after the fill", n, tab.size)
		}
	}
}

// TestReservedFillAllocsIndependentOfSize checks that a table reserved
// for n entries fills with the same number of allocations for every n:
// its head arrays and one entry and one link array.
func TestReservedFillAllocsIndependentOfSize(t *testing.T) {
	var allocs []float64
	sizes := []int{1 << 8, 1 << 12, 1 << 16}
	for _, n := range sizes {
		keys := migKeys(0, n)
		allocs = append(allocs, testing.AllocsPerRun(3, func() {
			tab := NewTable[int](hashes.STL, false)
			tab.Reserve(n)
			for i, k := range keys {
				tab.put(tab.hash(k), k, i)
			}
		}))
	}
	for i, n := range sizes {
		if allocs[i] != allocs[0] {
			t.Errorf("reserved fill of %d entries allocates %.0f times, of %d entries %.0f; want the same", sizes[0], allocs[0], n, allocs[i])
		}
	}
}

// TestSlotGrowthAfterShrinkingMigration grows the slot arrays while a
// migration is in flight whose bucket array is smaller than the slot
// count: the table is filled, mostly erased and migrated, then filled
// past its slot capacity with a migration step after each put. Every
// growth must still size the arrays to the live bucket count plus one,
// past the old capacity, and keep every entry.
func TestSlotGrowthAfterShrinkingMigration(t *testing.T) {
	tab := NewTable[int](hashes.STL, false)
	putTracked(t, tab, migKeys(0, 4096), func() {})
	for _, k := range migKeys(64, 4096) {
		tab.del(tab.hash(k), k)
	}
	tab.rehashInto(hashes.FNV)
	if len(tab.heads) >= len(tab.ents) {
		t.Fatalf("migration sized %d buckets for %d slots, want fewer", len(tab.heads), len(tab.ents))
	}
	slots, grewMigrating := cap(tab.ents), false
	added := migKeys(4096, 4096+2*slots)
	putTracked(t, tab, added, func() {
		if cap(tab.ents) != slots {
			grewMigrating = grewMigrating || tab.migrating()
			slots = cap(tab.ents)
		}
		tab.drain(1)
	})
	if !grewMigrating {
		t.Fatal("the slot arrays never grew while the migration was in flight")
	}
	for tab.drain(64) {
	}
	if want := 64 + len(added); tab.size != want {
		t.Fatalf("size %d, want %d", tab.size, want)
	}
	for i, k := range migKeys(0, 64) {
		if v, ok := tab.get(tab.hash(k), k); !ok || v != i {
			t.Fatalf("kept key %s: got %d, %v; want %d", k, v, ok, i)
		}
	}
	for i, k := range added {
		if v, ok := tab.get(tab.hash(k), k); !ok || v != i {
			t.Fatalf("added key %s: got %d, %v; want %d", k, v, ok, i)
		}
	}
}
