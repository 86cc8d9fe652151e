package container

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/sepe-go/sepe/internal/hashes"
)

// hookRecorder is an Observer tracking every event plus an
// incremental B-Coll, the way the telemetry layer consumes them.
type hookRecorder struct {
	puts, gets, deletes, rehashes, clears int
	probes                                []int
	bcoll                                 int
}

func (r *hookRecorder) Put(_ string, probes, delta int) {
	r.puts++
	r.probes = append(r.probes, probes)
	r.bcoll += delta
}

func (r *hookRecorder) Get(_ string, probes int) {
	r.gets++
	r.probes = append(r.probes, probes)
}

func (r *hookRecorder) Delete(_ string, _, delta int) {
	r.deletes++
	r.bcoll += delta
}

func (r *hookRecorder) Rehash(bcoll int) {
	r.rehashes++
	r.bcoll = bcoll
}

func (r *hookRecorder) Clear() {
	r.clears++
	r.bcoll = 0
}

func (r *hookRecorder) MigrateStart(int, int) {}
func (r *hookRecorder) MigrateDone(int)       {}

// TestHooksTrackBucketCollisions drives a map through inserts, lookups,
// deletes, rehashes and Clear, checking the incrementally-maintained
// B-Coll against Stats' authoritative recount at every step.
func TestHooksTrackBucketCollisions(t *testing.T) {
	rec := &hookRecorder{}
	m := NewTable[int](hashes.STL, false)
	m.SetObserver(rec)

	check := func(stage string) {
		t.Helper()
		if got := m.Stats().BucketCollisions; got != rec.bcoll {
			t.Fatalf("%s: incremental B-Coll = %d, recount = %d", stage, rec.bcoll, got)
		}
	}
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
		m.Put(keys[i], i)
		check("put " + keys[i])
	}
	if rec.rehashes == 0 {
		t.Fatal("300 inserts did not rehash")
	}
	for _, k := range keys[:50] {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("lost %s", k)
		}
	}
	m.Get("absent")
	for _, k := range keys[:100] {
		m.Delete(k)
		check("delete " + k)
	}
	m.Delete("absent")
	check("delete absent")
	m.Clear()
	check("clear")

	if rec.puts != 300 || rec.gets != 51 || rec.deletes != 101 || rec.clears != 1 {
		t.Fatalf("counts: %+v", rec)
	}
}

// TestHooksReplacePath verifies the replace branch reports probe counts
// without inventing a collision.
func TestHooksReplacePath(t *testing.T) {
	rec := &hookRecorder{}
	m := NewTable[int](hashes.STL, false)
	m.SetObserver(rec)
	m.Put("a", 1)
	before := rec.bcoll
	m.Put("a", 2) // replace: no new entry, no collision delta
	if rec.bcoll != before {
		t.Fatalf("replace changed B-Coll: %d -> %d", before, rec.bcoll)
	}
	if rec.puts != 2 {
		t.Fatalf("puts = %d", rec.puts)
	}
	if v, _ := m.Get("a"); v != 2 {
		t.Fatalf("value = %d", v)
	}
}

// TestHooksMultiContainers exercises the multi shapes: duplicate keys
// share a bucket, so each duplicate insert is a collision delta.
func TestHooksMultiContainers(t *testing.T) {
	rec := &hookRecorder{}
	mm := NewTable[int](hashes.STL, true)
	mm.SetObserver(rec)
	for i := 0; i < 4; i++ {
		mm.Put("dup", i)
	}
	if got := mm.Stats().BucketCollisions; got != rec.bcoll {
		t.Fatalf("multimap B-Coll: incremental %d, recount %d", rec.bcoll, got)
	}
	if got := mm.GetAll("dup"); len(got) != 4 {
		t.Fatalf("GetAll = %v", got)
	}
	if rec.gets != 1 {
		t.Fatalf("GetAll did not report a Get: %d", rec.gets)
	}
	mm.Clear()
	if mm.Len() != 0 || rec.bcoll != 0 {
		t.Fatalf("after Clear: len=%d bcoll=%d", mm.Len(), rec.bcoll)
	}

	ms := NewTable[struct{}](hashes.STL, true)
	rec2 := &hookRecorder{}
	ms.SetObserver(rec2)
	ms.Insert("x")
	ms.Insert("x")
	if got := ms.Stats().BucketCollisions; got != rec2.bcoll {
		t.Fatalf("multiset B-Coll: incremental %d, recount %d", rec2.bcoll, got)
	}
	ms.Clear()
	if ms.Len() != 0 {
		t.Fatalf("multiset Clear left %d", ms.Len())
	}
}

// TestHooksReserveRehash verifies Reserve reports a Rehash with an
// exact recount.
func TestHooksReserveRehash(t *testing.T) {
	rec := &hookRecorder{}
	s := NewTable[struct{}](hashes.STL, false)
	s.SetObserver(rec)
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), struct{}{})
	}
	s.Reserve(1000)
	if rec.rehashes == 0 {
		t.Fatal("Reserve did not report a Rehash")
	}
	if got := s.Stats().BucketCollisions; got != rec.bcoll {
		t.Fatalf("after Reserve: incremental %d, recount %d", rec.bcoll, got)
	}
}

// TestNilHooksZeroAlloc asserts the nil-observer path allocates
// nothing per operation beyond the table's own storage, including
// re-inserts that reuse erased slots and refills after Clear.
func TestNilHooksZeroAlloc(t *testing.T) {
	m := NewTable[int](hashes.STL, false)
	m.Reserve(1024)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
		m.Put(keys[i], i)
	}
	ops := []struct {
		name string
		op   func()
	}{
		{"hit Get", func() { m.Get(keys[5]) }},
		{"miss Get", func() { m.Get("absent") }},
		{"update Put", func() { m.Put(keys[7], 7) }},
		{"miss Delete", func() { m.Delete("absent") }},
		{"Delete and re-insert", func() {
			for _, k := range keys[:64] {
				m.Delete(k)
			}
			for i, k := range keys[:64] {
				m.Put(k, i)
			}
		}},
		{"Clear and refill", func() {
			m.Clear()
			for i, k := range keys {
				m.Put(k, i)
			}
		}},
	}
	for _, o := range ops {
		if allocs := testing.AllocsPerRun(100, o.op); allocs != 0 {
			t.Errorf("%s with a nil observer allocates %.1f/op", o.name, allocs)
		}
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(keys))
	}
}

// TestRehashAllocsIndependentOfSize asserts that rehashing and a full
// incremental migration allocate only their head arrays, however many
// entries they relink.
func TestRehashAllocsIndependentOfSize(t *testing.T) {
	for _, n := range []int{1 << 8, 1 << 12, 1 << 16} {
		tab := NewTable[int](hashes.STL, false)
		for i := 0; i < n; i++ {
			k := migKey(i)
			tab.put(tab.hash(k), k, i)
		}
		if allocs := testing.AllocsPerRun(5, func() { tab.rehash(len(tab.heads)) }); allocs != 1 {
			t.Errorf("%d entries: rehash allocates %.1f, want 1 (the head array)", n, allocs)
		}
		migrate := func() {
			tab.rehashInto(hashes.FNV)
			for tab.drain(64) {
			}
		}
		if allocs := testing.AllocsPerRun(5, migrate); allocs != 1 {
			t.Errorf("%d entries: migration allocates %.1f, want 1 (the new head array)", n, allocs)
		}
		if tab.size != n {
			t.Fatalf("%d entries: size %d after rehash and migration", n, tab.size)
		}
	}
}

// TestErasedSlotsZeroedAndReused checks the free list: an erased slot
// holds no key or value, and inserts fill erased slots before taking
// new ones.
func TestErasedSlotsZeroedAndReused(t *testing.T) {
	tab := NewTable[int](hashes.STL, false)
	for i := 0; i < 100; i++ {
		k := migKey(i)
		tab.put(tab.hash(k), k, i+1)
	}
	for i := 0; i < 100; i += 2 {
		k := migKey(i)
		tab.del(tab.hash(k), k)
	}
	free := 0
	for i := tab.free; i >= 0; i = *tab.link(i) {
		if e, _ := tab.at(i); *e != (entry[int]{}) {
			t.Fatalf("erased slot %d holds %+v", i, *e)
		}
		free++
	}
	if free != 50 {
		t.Fatalf("free list holds %d slots, want 50", free)
	}
	for i := 0; i < 100; i += 2 {
		k := migKey(i)
		tab.put(tab.hash(k), k, i+1)
	}
	if tab.slots != 100 || tab.free != -1 {
		t.Fatalf("re-inserts grew the slots to %d (free head %d), want 100 slots reused", tab.slots, tab.free)
	}
}

// TestEntrySize pins the entry layout: chain links live in a parallel
// array so that an int-valued entry stays 32 bytes and never straddles
// a 64-byte cache line.
func TestEntrySize(t *testing.T) {
	if got := reflect.TypeOf(entry[int]{}).Size(); got != 32 {
		t.Fatalf("entry[int] is %d bytes, want 32", got)
	}
}

// TestSlotIndexLimit pins the capacity guard: slot indices are int32,
// so the slot past math.MaxInt32-1 panics instead of wrapping.
func TestSlotIndexLimit(t *testing.T) {
	if got := slot(math.MaxInt32 - 1); got != math.MaxInt32-1 {
		t.Fatalf("slot(MaxInt32-1) = %d", got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "per-table limit") {
			t.Fatalf("slot(MaxInt32) panicked with %q, want the per-table limit message", msg)
		}
	}()
	slot(math.MaxInt32)
}
