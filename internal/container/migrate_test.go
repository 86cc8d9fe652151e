package container

import (
	"fmt"
	"slices"
	"testing"

	"github.com/sepe-go/sepe/internal/hashes"
)

// migKey generates distinct keys for migration tests.
func migKey(i int) string { return fmt.Sprintf("key-%06d", i) }

// weakHash collapses everything to a handful of buckets, standing in
// for a drifted specialized function.
func weakHash(key string) uint64 {
	if len(key) == 0 {
		return 0
	}
	return uint64(key[0]) & 3
}

func TestMapMigrationPreservesEntries(t *testing.T) {
	m := NewTable[int](weakHash, false)
	const n = 1000
	for i := 0; i < n; i++ {
		m.Put(migKey(i), i)
	}
	m.BeginMigration(hashes.STL)
	if !m.Migrating() {
		t.Fatal("Migrating() = false right after BeginMigration")
	}

	// Interleave lookups, inserts and deletes with single-bucket drain
	// steps: everything must stay consistent mid-migration.
	steps := 0
	for m.MigrateStep(1) {
		steps++
		i := steps % n
		if v, ok := m.Get(migKey(i)); !ok || (i < n && v != i && v != -i) {
			t.Fatalf("step %d: Get(%q) = %d,%v", steps, migKey(i), v, ok)
		}
	}
	if m.Migrating() {
		t.Fatal("Migrating() = true after drain completed")
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(migKey(i)); !ok || v != i {
			t.Fatalf("post-migration Get(%q) = %d,%v", migKey(i), v, ok)
		}
	}
	// The new region must actually be indexed by the strong hash: B-Coll
	// under STL at load factor ≤1 is far below the weak hash's n-4.
	if bc := m.Stats().BucketCollisions; bc > n/2 {
		t.Fatalf("post-migration BucketCollisions = %d; migration did not re-bucket", bc)
	}
}

func TestMapPutExistingDuringMigrationNoDuplicate(t *testing.T) {
	m := NewTable[int](weakHash, false)
	const n = 200
	for i := 0; i < n; i++ {
		m.Put(migKey(i), i)
	}
	m.BeginMigration(hashes.STL)
	// Every key still lives in the retired region. Overwriting now must
	// replace there, not append a shadowing duplicate.
	for i := 0; i < n; i++ {
		if isNew := m.Put(migKey(i), -i); isNew {
			t.Fatalf("Put(%q) during migration reported new", migKey(i))
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d after overwrites, want %d", m.Len(), n)
	}
	for m.MigrateStep(7) {
	}
	if m.Len() != n {
		t.Fatalf("Len = %d after drain, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(migKey(i)); !ok || v != -i {
			t.Fatalf("Get(%q) = %d,%v, want %d", migKey(i), v, ok, -i)
		}
	}
}

func TestMapDeleteOldRegionKeyDuringMigration(t *testing.T) {
	m := NewTable[int](weakHash, false)
	const n = 100
	for i := 0; i < n; i++ {
		m.Put(migKey(i), i)
	}
	m.BeginMigration(hashes.STL)
	for i := 0; i < n; i += 2 {
		if removed := m.Delete(migKey(i)); removed != 1 {
			t.Fatalf("Delete(%q) = %d, want 1", migKey(i), removed)
		}
	}
	for m.MigrateStep(3) {
	}
	if m.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", m.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		_, ok := m.Get(migKey(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%q) present=%v, want %v", migKey(i), ok, want)
		}
	}
}

func TestMultiMapDuplicatesSurviveMigration(t *testing.T) {
	m := NewTable[int](weakHash, true)
	const n = 50
	for i := 0; i < n; i++ {
		m.Put(migKey(i), i)
		m.Put(migKey(i), i+1000)
	}
	m.BeginMigration(hashes.STL)
	// Mid-migration, GetAll and Count must see both copies.
	m.MigrateStep(1)
	for i := 0; i < n; i++ {
		if got := m.Count(migKey(i)); got != 2 {
			t.Fatalf("mid-migration Count(%q) = %d, want 2", migKey(i), got)
		}
		if vals := m.GetAll(migKey(i)); len(vals) != 2 {
			t.Fatalf("mid-migration GetAll(%q) = %v", migKey(i), vals)
		}
	}
	// A third copy inserted mid-migration lands in the live region.
	m.Put(migKey(0), 2000)
	for m.MigrateStep(5) {
	}
	if got := m.Count(migKey(0)); got != 3 {
		t.Fatalf("Count(%q) = %d, want 3", migKey(0), got)
	}
	if m.Len() != 2*n+1 {
		t.Fatalf("Len = %d, want %d", m.Len(), 2*n+1)
	}
}

func TestSetAndMultiSetMigration(t *testing.T) {
	s := NewTable[struct{}](weakHash, false)
	ms := NewTable[struct{}](weakHash, true)
	const n = 300
	for i := 0; i < n; i++ {
		s.Insert(migKey(i))
		ms.Insert(migKey(i))
		ms.Insert(migKey(i))
	}
	s.BeginMigration(hashes.STL)
	ms.BeginMigration(hashes.STL)
	for s.MigrateStep(2) {
	}
	for ms.MigrateStep(2) {
	}
	if s.Len() != n || ms.Len() != 2*n {
		t.Fatalf("Len = %d/%d, want %d/%d", s.Len(), ms.Len(), n, 2*n)
	}
	for i := 0; i < n; i++ {
		if !s.Search(migKey(i)) {
			t.Fatalf("set lost %q", migKey(i))
		}
		if ms.Count(migKey(i)) != 2 {
			t.Fatalf("multiset Count(%q) = %d", migKey(i), ms.Count(migKey(i)))
		}
	}
}

func TestBeginMigrationWhileMigratingFinishesFirst(t *testing.T) {
	m := NewTable[int](weakHash, false)
	const n = 100
	for i := 0; i < n; i++ {
		m.Put(migKey(i), i)
	}
	m.BeginMigration(hashes.FNV1)
	m.MigrateStep(1) // leave the first migration unfinished
	m.BeginMigration(hashes.STL)
	for m.MigrateStep(4) {
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(migKey(i)); !ok || v != i {
			t.Fatalf("Get(%q) = %d,%v", migKey(i), v, ok)
		}
	}
}

func TestClearDuringMigrationEndsIt(t *testing.T) {
	m := NewTable[int](weakHash, false)
	for i := 0; i < 100; i++ {
		m.Put(migKey(i), i)
	}
	m.BeginMigration(hashes.STL)
	m.Clear()
	if m.Migrating() {
		t.Fatal("Clear left the migration in flight")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after Clear", m.Len())
	}
	// The table must be fully usable afterwards.
	m.Put("a", 1)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get after Clear = %d,%v", v, ok)
	}
}

func TestMigrationGrowthDuringDrain(t *testing.T) {
	// Inserting heavily while a migration drains must still trigger
	// load-factor growth of the live region without losing entries.
	m := NewTable[int](weakHash, false)
	const base = 64
	for i := 0; i < base; i++ {
		m.Put(migKey(i), i)
	}
	m.BeginMigration(hashes.STL)
	const extra = 2000
	for i := base; i < base+extra; i++ {
		m.Put(migKey(i), i)
		m.MigrateStep(1)
	}
	for m.MigrateStep(8) {
	}
	if m.Len() != base+extra {
		t.Fatalf("Len = %d, want %d", m.Len(), base+extra)
	}
	for i := 0; i < base+extra; i++ {
		if v, ok := m.Get(migKey(i)); !ok || v != i {
			t.Fatalf("Get(%q) = %d,%v", migKey(i), v, ok)
		}
	}
	if lf := m.LoadFactor(); lf > 1.01 {
		t.Fatalf("load factor %g after growth-during-drain", lf)
	}
}

func TestMigrationStatsAndForEachSeeBothRegions(t *testing.T) {
	m := NewTable[int](weakHash, false)
	const n = 128
	for i := 0; i < n; i++ {
		m.Put(migKey(i), i)
	}
	m.BeginMigration(hashes.STL)
	m.MigrateStep(1)

	seen := map[string]int{}
	m.forEach(func(k string, v int) { seen[k] = v })
	if len(seen) != n {
		t.Fatalf("ForEach mid-migration visited %d keys, want %d", len(seen), n)
	}
	st := m.Stats()
	if st.Size != n {
		t.Fatalf("Stats.Size = %d, want %d", st.Size, n)
	}
	if st.MaxBucketLen == 0 {
		t.Fatal("Stats.MaxBucketLen = 0 mid-migration")
	}
}

// mirror applies each operation to a flat table and to the refTable
// oracle, failing on the first difference in return value or observer
// calls, and compares Stats, load factor and iteration order after
// every migration step and phase.
type mirror[V comparable] struct {
	t               *testing.T
	got             *Table[V]
	want            *refTable[V]
	gotLog, wantLog eventLog
	val             func(int) V
}

func newMirror[V comparable](t *testing.T, hash hashes.Func, multi bool, val func(int) V) *mirror[V] {
	m := &mirror[V]{t: t, got: NewTable[V](hash, multi), want: newRefTable[V](hash, multi), val: val}
	m.got.obs, m.want.obs = &m.gotLog, &m.wantLog
	return m
}

func (m *mirror[V]) check(desc string, g, w any) {
	m.t.Helper()
	if g != w {
		m.t.Fatalf("%s: returned %v, oracle %v", desc, g, w)
	}
	if !slices.Equal(m.gotLog, m.wantLog) {
		m.t.Fatalf("%s: observer calls\n got %+v\nwant %+v", desc, m.gotLog, m.wantLog)
	}
	m.gotLog, m.wantLog = m.gotLog[:0], m.wantLog[:0]
}

// checkState compares the whole tables.
func (m *mirror[V]) checkState(desc string) {
	m.t.Helper()
	if gs, ws := m.got.Stats(), refStats(m.want); gs != ws {
		m.t.Fatalf("%s: Stats = %+v, oracle %+v", desc, gs, ws)
	}
	if m.got.migrating() != m.want.migrating() || m.got.loadFactor() != m.want.loadFactor() {
		m.t.Fatalf("%s: migrating/load factor differ", desc)
	}
	var gEach, wEach []kv[V]
	m.got.forEach(func(k string, v V) { gEach = append(gEach, kv[V]{k, v}) })
	m.want.forEach(func(k string, v V) { wEach = append(wEach, kv[V]{k, v}) })
	if !slices.Equal(gEach, wEach) {
		m.t.Fatalf("%s: ForEach order\n got %v\nwant %v", desc, gEach, wEach)
	}
}

func (m *mirror[V]) put(key string, i int) {
	m.t.Helper()
	m.check("Put "+key, m.got.Put(key, m.val(i)), m.want.put(m.want.hash(key), key, m.val(i)))
}

func (m *mirror[V]) del(key string) {
	m.t.Helper()
	m.check("Delete "+key, m.got.Delete(key), m.want.del(m.want.hash(key), key))
}

// lookups runs Get, Count and GetAll for key.
func (m *mirror[V]) lookups(key string) {
	m.t.Helper()
	gv, gok := m.got.Get(key)
	wv, wok := m.want.get(m.want.hash(key), key)
	m.check("Get "+key, lookup[V]{gv, gok}, lookup[V]{wv, wok})
	m.check("Count "+key, m.got.Count(key), m.want.count(m.want.hash(key), key))
	ga, wa := m.got.GetAll(key), m.want.collect(m.want.hash(key), key)
	if !slices.Equal(ga, wa) || (ga == nil) != (wa == nil) {
		m.t.Fatalf("GetAll %s = %v, oracle %v", key, ga, wa)
	}
	m.check("GetAll "+key, nil, nil)
}

func (m *mirror[V]) begin(h hashes.Func) {
	m.t.Helper()
	m.got.rehashInto(h)
	m.want.rehashInto(h)
	m.check("BeginMigration", nil, nil)
	m.checkState("BeginMigration")
}

func (m *mirror[V]) step(k int) bool {
	m.t.Helper()
	g, w := m.got.drain(k), m.want.drain(k)
	desc := fmt.Sprintf("MigrateStep %d", k)
	m.check(desc, g, w)
	m.checkState(desc)
	return g
}

// stepToMixed drains one bucket at a time until the rehash cursor has
// passed some retired entries and not others, so the retired walks
// see both hashes.
func (m *mirror[V]) stepToMixed() {
	m.t.Helper()
	for {
		below, above := m.retiredSides()
		if below > 0 && above > 0 {
			return
		}
		if !m.step(1) {
			m.t.Fatal("migration ended before the rehash cursor split the retired entries")
		}
	}
}

// retiredSides counts the retired entries below and at or above the
// rehash cursor.
func (m *mirror[V]) retiredSides() (below, above int) {
	for _, head := range m.got.old {
		for i := head; i >= 0; i = *m.got.link(i) {
			if i < m.got.hashPos {
				below++
			} else {
				above++
			}
		}
	}
	return below, above
}

// TestMigrationMixedCursorMatchesReference holds a migration with the
// rehash cursor inside the retired entries and checks Put, Get,
// Delete, Count and GetAll on keys on both sides of it against the
// refTable oracle, over hashes that collide on all 64 bits: slot reuse
// through the free list, a second migration while the sweep is
// unfinished, and Clear mid-migration.
func TestMigrationMixedCursorMatchesReference(t *testing.T) {
	// Digit strings, least significant digit first: LoseLose sums the
	// bytes, so every key shares its full 64-bit hash with many others,
	// and weakHash spreads them over four buckets by the first digit.
	key := func(i int) string {
		d := []byte(fmt.Sprintf("%04d", i))
		slices.Reverse(d)
		return string(d)
	}
	const n = 400
	for _, hs := range [][3]hashes.Func{
		{hashes.LoseLose, weakHash, hashes.STL},
		{weakHash, hashes.LoseLose, hashes.FNV},
		{hashes.STL, hashes.LoseLose, weakHash},
	} {
		for _, multi := range []bool{false, true} {
			m := newMirror[int](t, hs[0], multi, func(i int) int { return i })
			for i := 0; i < n; i++ {
				m.put(key(i), i)
				if multi && i%3 == 0 {
					m.put(key(i), -i)
				}
			}
			m.begin(hs[1])
			m.stepToMixed()
			for i := 0; i < n+20; i++ {
				m.lookups(key(i))
			}
			// Overwrites and appends on both sides of the cursor, then
			// erasures that free slots on both sides.
			for i := 0; i < n; i += 7 {
				m.put(key(i), 1000+i)
			}
			m.checkState("overwrites")
			for i := 1; i < n; i += 5 {
				m.del(key(i))
			}
			m.checkState("erasures")
			if below, above := m.retiredSides(); below == 0 || above == 0 {
				t.Fatalf("cursor left the retired entries after the erasures: %d below, %d above", below, above)
			}
			// New keys reuse the freed slots, below and above the cursor;
			// the sweep then passes the reused slots above it.
			for i := n; i < n+60; i++ {
				m.put(key(i), i)
			}
			m.checkState("slot reuse")
			for i := 0; i < n+60; i += 3 {
				m.lookups(key(i))
			}
			for range 20 {
				m.step(1)
			}
			for i := 0; i < n+60; i += 2 {
				m.lookups(key(i))
			}
			// A second swap while the sweep is unfinished finishes the
			// first migration synchronously.
			if m.got.hashPos >= m.got.hashEnd {
				t.Fatalf("sweep finished before the second swap: cursor %d of %d", m.got.hashPos, m.got.hashEnd)
			}
			m.begin(hs[2])
			m.stepToMixed()
			for i := 0; i < n+60; i++ {
				m.lookups(key(i))
			}
			for i := 2; i < n; i += 9 {
				m.del(key(i))
				m.put(key(i), 2000+i)
			}
			m.checkState("erase and re-insert")
			for m.step(3) {
			}
			for i := 0; i < n+60; i++ {
				m.lookups(key(i))
			}
			// Clear mid-migration drops the retired region with the
			// cursor; the table then migrates again from scratch.
			m.begin(hs[0])
			m.stepToMixed()
			m.got.clear()
			m.want.clear()
			m.check("Clear", nil, nil)
			m.checkState("Clear")
			if m.got.hashPos != 0 || m.got.hashEnd != 0 {
				t.Fatalf("Clear left the rehash cursor at %d of %d", m.got.hashPos, m.got.hashEnd)
			}
			for i := 0; i < 100; i++ {
				m.put(key(i), i)
			}
			m.begin(hs[1])
			m.stepToMixed()
			for i := 0; i < 120; i++ {
				m.lookups(key(i))
			}
			for m.step(2) {
			}
		}
	}
}
