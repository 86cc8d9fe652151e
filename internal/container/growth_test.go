package container

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/sepe-go/sepe/internal/hashes"
)

func migKeys(from, to int) []string {
	keys := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		keys = append(keys, migKey(i))
	}
	return keys
}

// slotBytes is the size of one slot of a Table[int]: its entry and its
// link.
var slotBytes = uint64(reflect.TypeOf(entry[int]{}).Size()) + 4

// growthLog tallies what a fill allocated, as seen from the table
// between puts: the bytes of every first-segment array, head array and
// chunk directory it allocated, and every chunk it appended.
type growthLog struct {
	firstBytes, headBytes, dirBytes uint64
	chunks                          []*chunk[int]
}

// put puts key into tab and logs any allocation the put made. It fails
// t when a first-segment growth does not size both arrays to the
// bucket count the put started with, plus one, capped at chunkSlots,
// and returns whether the first segment grew and whether the put
// rehashed.
func (g *growthLog) put(t *testing.T, tab *Table[int], key string, val int) (grew, rehashed bool) {
	t.Helper()
	buckets, first, dir := len(tab.heads), cap(tab.ents), cap(tab.chunks)
	tab.put(tab.hash(key), key, val)
	if grew = cap(tab.ents) != first; grew {
		if want := min(buckets+1, chunkSlots); cap(tab.ents) != want || cap(tab.links) != want {
			t.Fatalf("put %d over %d buckets grew the first segment from %d to %d entries and %d links, want %d each",
				val, buckets, first, cap(tab.ents), cap(tab.links), want)
		}
		if cap(tab.ents) < chunkSlots { // the growth to chunkSlots takes chunk 0
			g.firstBytes += uint64(cap(tab.ents)) * slotBytes
		}
	}
	if rehashed = len(tab.heads) != buckets; rehashed {
		g.headBytes += 4 * uint64(len(tab.heads))
	}
	if cap(tab.chunks) != dir {
		g.dirBytes += 8 * uint64(cap(tab.chunks))
	}
	g.chunks = append(g.chunks, tab.chunks[len(g.chunks):]...)
	return grew, rehashed
}

// maxFirstGrowth bounds the slots of every first-segment array a fill
// allocates below chunkSlots (the growth to chunkSlots takes chunk 0):
// each growth at least doubles the bucket count, so the capacities sum
// to under twice the last plus one per growth.
const maxFirstGrowth = 2*chunkSlots + 32

// TestFillCopiesNoChunkSlot pins the slot storage's growth policy on
// fills of 2⁸ to 2²⁰ entries: a chunk, once appended, is the one the
// table holds at the end (no slot at or above chunkSlots is copied),
// the first segment's growth stays under maxFirstGrowth slots whatever
// the fill's size, and the bytes the fill allocates are at most its
// chunks, that bound, its head arrays and its chunk directory. The
// arrays below 32 KiB may round up to their size class, so the bound
// adds an eighth of all but the chunks and 4 KiB. A fill that copied
// every slot on growth allocated about twice its final slot storage.
func TestFillCopiesNoChunkSlot(t *testing.T) {
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16, 1 << 20} {
		keys := migKeys(0, n)
		g := growthLog{chunks: make([]*chunk[int], 0, n/chunkSlots+1)}
		tab := NewTable[int](hashes.STL, false)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, k := range keys {
			g.put(t, tab, k, i)
		}
		runtime.ReadMemStats(&after)
		if tab.size != n || cap(tab.ents) > chunkSlots {
			t.Fatalf("%d entries: size %d, first segment %d slots", n, tab.size, cap(tab.ents))
		}
		if len(g.chunks) != len(tab.chunks) {
			t.Fatalf("%d entries: logged %d chunks, the table holds %d", n, len(g.chunks), len(tab.chunks))
		}
		for c, ch := range g.chunks {
			if tab.chunks[c] != ch {
				t.Fatalf("%d entries: chunk %d was replaced after it was appended", n, c)
			}
		}
		if g.firstBytes > maxFirstGrowth*slotBytes {
			t.Errorf("%d entries: the first segment's arrays took %d bytes, want at most %d", n, g.firstBytes, maxFirstGrowth*slotBytes)
		}
		chunkBytes := uint64(len(tab.chunks)) * uint64(reflect.TypeOf(chunk[int]{}).Size())
		small := maxFirstGrowth*slotBytes + g.headBytes + g.dirBytes
		allocated, bound := after.TotalAlloc-before.TotalAlloc, chunkBytes+small+small/8+4096
		t.Logf("%d entries: allocated %d bytes, %d in chunks, %d in first-segment growth, %d in heads",
			n, allocated, chunkBytes, g.firstBytes, g.headBytes)
		if allocated > bound {
			t.Errorf("%d entries: the fill allocated %d bytes, want at most %d: %d in chunks, %d in heads, %d in the chunk directory",
				n, allocated, bound, chunkBytes, g.headBytes, g.dirBytes)
		}
	}
}

// TestFirstSegmentGrowsOncePerRehash pins the first segment's growth
// below chunkSlots: it reallocates its entry and link arrays at most
// once more than the fill rehashes, each time to the bucket count plus
// one (capped at chunkSlots), the most slots a table holds before its
// next rehash. Past chunkSlots it never grows again.
func TestFirstSegmentGrowsOncePerRehash(t *testing.T) {
	for _, n := range []int{1 << 8, chunkSlots, 4 * chunkSlots} {
		tab := NewTable[int](hashes.STL, false)
		var g growthLog
		reallocs, rehashes := 0, 0
		for i, k := range migKeys(0, n) {
			grew, rehashed := g.put(t, tab, k, i)
			if grew {
				if tab.slots > chunkSlots {
					t.Fatalf("%d entries: the first segment grew at slot %d, past %d", n, tab.slots, chunkSlots)
				}
				reallocs++
			}
			if rehashed && tab.slots <= chunkSlots {
				rehashes++
			}
		}
		if reallocs > rehashes+1 {
			t.Errorf("%d entries: %d first-segment reallocations for %d rehashes below %d slots, want at most %d",
				n, reallocs, rehashes, chunkSlots, rehashes+1)
		}
		if tab.size != n {
			t.Fatalf("%d entries: size %d after the fill", n, tab.size)
		}
	}
}

// TestSlotGrowthAfterShrinkingMigration takes new slots while a
// migration is in flight whose bucket array is smaller than the slot
// count: the table fills its first segment, is mostly erased and
// migrated, then filled with a migration step after each put until it
// crosses chunkSlots into the chunks while the migration still runs.
// Every entry must survive.
func TestSlotGrowthAfterShrinkingMigration(t *testing.T) {
	tab := NewTable[int](hashes.STL, false)
	var g growthLog
	for i, k := range migKeys(0, chunkSlots) {
		g.put(t, tab, k, i)
	}
	for _, k := range migKeys(64, chunkSlots) {
		tab.del(tab.hash(k), k)
	}
	tab.rehashInto(hashes.FNV)
	if len(tab.heads) >= int(tab.slots) {
		t.Fatalf("migration sized %d buckets for %d slots, want fewer", len(tab.heads), tab.slots)
	}
	chunkedMigrating := false
	added := migKeys(chunkSlots, 3*chunkSlots)
	for i, k := range added {
		g.put(t, tab, k, i)
		chunkedMigrating = chunkedMigrating || tab.migrating() && tab.slots > chunkSlots
		tab.drain(1)
	}
	if !chunkedMigrating {
		t.Fatal("the table never took a chunk slot while the migration was in flight")
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
