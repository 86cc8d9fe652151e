package container

import (
	"fmt"
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
