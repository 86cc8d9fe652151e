package container

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/sepe-go/sepe/internal/hashes"
)

func TestMapBasics(t *testing.T) {
	m := NewTable[int](hashes.STL, false)
	if _, ok := m.Get("missing"); ok {
		t.Error("empty map must miss")
	}
	if !m.Put("a", 1) {
		t.Error("first insert must be new")
	}
	if m.Put("a", 2) {
		t.Error("second insert must replace")
	}
	if v, ok := m.Get("a"); !ok || v != 2 {
		t.Errorf("Get(a) = %d,%v, want 2,true", v, ok)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1", m.Len())
	}
	if n := m.Delete("a"); n != 1 {
		t.Errorf("Delete = %d, want 1", n)
	}
	if m.Len() != 0 {
		t.Errorf("Len after delete = %d", m.Len())
	}
	if n := m.Delete("a"); n != 0 {
		t.Errorf("double Delete = %d, want 0", n)
	}
}

func TestMapManyKeysWithRehash(t *testing.T) {
	m := NewTable[int](hashes.STL, false)
	const n = 5000
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("key-%06d", i), i)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	st := m.Stats()
	if st.Buckets < n {
		t.Errorf("buckets = %d, want ≥ %d (load factor ≤ 1)", st.Buckets, n)
	}
	if !isPrime(st.Buckets) {
		t.Errorf("bucket count %d not prime", st.Buckets)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%06d", i)
		if v, ok := m.Get(k); !ok || v != i {
			t.Fatalf("Get(%q) = %d,%v", k, v, ok)
		}
	}
	// Delete the even keys, then verify membership exactly.
	for i := 0; i < n; i += 2 {
		if m.Delete(fmt.Sprintf("key-%06d", i)) != 1 {
			t.Fatalf("delete of key %d failed", i)
		}
	}
	for i := 0; i < n; i++ {
		_, ok := m.Get(fmt.Sprintf("key-%06d", i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("after deletions, Get(key %d) = %v, want %v", i, ok, want)
		}
	}
}

// TestMapMatchesBuiltin cross-checks against Go's built-in map under a
// random operation sequence (the model-based test).
func TestMapMatchesBuiltin(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewTable[int](hashes.FNV, false)
		ref := make(map[string]int)
		for i, op := range ops {
			key := fmt.Sprintf("k%d", op%64)
			switch op % 3 {
			case 0:
				m.Put(key, i)
				ref[key] = i
			case 1:
				got, ok := m.Get(key)
				want, wok := ref[key]
				if ok != wok || (ok && got != want) {
					return false
				}
			case 2:
				n := m.Delete(key)
				_, existed := ref[key]
				delete(ref, key)
				if (n == 1) != existed {
					return false
				}
			}
			if m.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetBasics(t *testing.T) {
	s := NewTable[struct{}](hashes.City, false)
	if !s.Put("x", struct{}{}) || s.Put("x", struct{}{}) {
		t.Error("Add new/dup semantics wrong")
	}
	if !s.Search("x") || s.Search("y") {
		t.Error("Search wrong")
	}
	if s.Erase("x") != 1 || s.Len() != 0 {
		t.Error("Erase wrong")
	}
}

func TestMultiMapDuplicates(t *testing.T) {
	m := NewTable[int](hashes.STL, true)
	m.Put("k", 1)
	m.Put("k", 2)
	m.Put("k", 3)
	m.Put("other", 9)
	if m.Len() != 4 {
		t.Errorf("Len = %d, want 4", m.Len())
	}
	if m.Count("k") != 3 {
		t.Errorf("Count = %d, want 3", m.Count("k"))
	}
	vals := m.GetAll("k")
	if len(vals) != 3 {
		t.Fatalf("GetAll = %v", vals)
	}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	if sum != 6 {
		t.Errorf("values = %v", vals)
	}
	if m.Delete("k") != 3 || m.Len() != 1 {
		t.Error("Delete must remove all duplicates")
	}
}

func TestMultiSetCounts(t *testing.T) {
	s := NewTable[struct{}](hashes.STL, true)
	for i := 0; i < 5; i++ {
		s.Insert("dup")
	}
	if s.Count("dup") != 5 || s.Len() != 5 {
		t.Error("multiset counting wrong")
	}
	if s.Erase("dup") != 5 || s.Search("dup") {
		t.Error("multiset erase wrong")
	}
}

func TestMultiMapRehashKeepsDuplicates(t *testing.T) {
	m := NewTable[int](hashes.STL, true)
	for i := 0; i < 2000; i++ {
		m.Put(fmt.Sprintf("k%d", i%100), i)
	}
	if m.Len() != 2000 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < 100; i++ {
		if c := m.Count(fmt.Sprintf("k%d", i)); c != 20 {
			t.Fatalf("Count(k%d) = %d, want 20", i, c)
		}
	}
}

func TestNewCoversAllKinds(t *testing.T) {
	for _, k := range Kinds {
		c := New(k, hashes.STL)
		c.Insert("a")
		c.Insert("a")
		if !c.Search("a") {
			t.Errorf("%v: Search failed", k)
		}
		wantLen := 1
		if k == MultiMapKind || k == MultiSetKind {
			wantLen = 2
		}
		if c.Len() != wantLen {
			t.Errorf("%v: Len = %d, want %d", k, c.Len(), wantLen)
		}
		if n := c.Erase("a"); n != wantLen {
			t.Errorf("%v: Erase = %d, want %d", k, n, wantLen)
		}
		st := c.Stats()
		if st.Size != 0 || st.Buckets < initialBuckets {
			t.Errorf("%v: Stats = %+v", k, st)
		}
	}
	if MapKind.String() != "Map" || MultiSetKind.String() != "MultiSet" {
		t.Error("Kind names wrong")
	}
}

func TestBucketCollisionsCounted(t *testing.T) {
	// A constant hash forces every key into one bucket: n keys → n−1
	// bucket collisions and a max chain of n.
	worst := func(string) uint64 { return 42 }
	m := NewTable[int](worst, false)
	const n = 10
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	st := m.Stats()
	if st.BucketCollisions != n-1 {
		t.Errorf("BucketCollisions = %d, want %d", st.BucketCollisions, n-1)
	}
	if st.MaxBucketLen != n {
		t.Errorf("MaxBucketLen = %d, want %d", st.MaxBucketLen, n)
	}
	// All keys must still be retrievable through the chain.
	for i := 0; i < n; i++ {
		if _, ok := m.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("chained key k%d lost", i)
		}
	}
}

func TestLowMixingContainerDegrades(t *testing.T) {
	// RQ7's effect: an identity-like hash (sequential values) has all
	// entropy in the low bits; discarding them collapses every key
	// into one bucket while the full hash spreads them.
	seq := func(k string) uint64 {
		var v uint64
		for i := 0; i < len(k); i++ {
			v = v*10 + uint64(k[i]-'0')
		}
		return v
	}
	normal := NewTable[int](seq, false)
	lowmix := NewTable[int](func(k string) uint64 { return seq(k) >> 48 }, false)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("%06d", i)
		normal.Put(key, i)
		lowmix.Put(key, i)
	}
	ns, ls := normal.Stats(), lowmix.Stats()
	if ns.BucketCollisions > 100 {
		t.Errorf("full-hash collisions = %d, want few", ns.BucketCollisions)
	}
	if ls.BucketCollisions != 999 {
		t.Errorf("low-mixing collisions = %d, want 999 (all in one bucket)", ls.BucketCollisions)
	}
}

func TestForEachVisitsAll(t *testing.T) {
	m := NewTable[int](hashes.STL, false)
	want := map[string]int{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i)
		m.Put(k, i)
		want[k] = i
	}
	got := map[string]int{}
	m.forEach(func(k string, v int) { got[k] = v })
	if len(got) != len(want) {
		t.Fatalf("visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %q = %d, want %d", k, got[k], v)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := map[int]int{0: 2, 2: 2, 3: 3, 4: 5, 14: 17, 27: 29, 100: 101}
	for in, want := range cases {
		if got := nextPrime(in); got != want {
			t.Errorf("nextPrime(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPrime(t *testing.T) {
	primes := map[int]bool{2: true, 3: true, 5: true, 13: true, 104729: true}
	composites := map[int]bool{0: false, 1: false, 4: false, 9: false, 104730: false}
	for n, want := range primes {
		if isPrime(n) != want {
			t.Errorf("isPrime(%d) wrong", n)
		}
	}
	for n, want := range composites {
		if isPrime(n) != want {
			t.Errorf("isPrime(%d) wrong", n)
		}
	}
}

func BenchmarkMapInsertSearch(b *testing.B) {
	keysList := make([]string, 10000)
	for i := range keysList {
		keysList[i] = fmt.Sprintf("%03d-%02d-%04d", i%1000, i%100, i%10000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewTable[int](hashes.STL, false)
		for j, k := range keysList {
			m.Put(k, j)
		}
		hits := 0
		for _, k := range keysList {
			if _, ok := m.Get(k); ok {
				hits++
			}
		}
		if hits != len(keysList) {
			b.Fatal("misses")
		}
	}
}

func TestReserveAvoidsRehash(t *testing.T) {
	m := NewTable[int](hashes.STL, false)
	m.Reserve(5000)
	before := m.Stats().Buckets
	if before < 5000 || !isPrime(before) {
		t.Fatalf("Reserve gave %d buckets", before)
	}
	for i := 0; i < 5000; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	if got := m.Stats().Buckets; got != before {
		t.Errorf("rehash happened despite Reserve: %d → %d", before, got)
	}
	// Reserve below the current size is a no-op.
	m.Reserve(10)
	if m.Stats().Buckets != before {
		t.Error("shrinking Reserve must be a no-op")
	}
}

func TestLoadFactorAndClear(t *testing.T) {
	m := NewTable[int](hashes.STL, false)
	if m.LoadFactor() != 0 {
		t.Error("empty load factor must be 0")
	}
	for i := 0; i < 100; i++ {
		m.Put(fmt.Sprintf("k%d", i), i)
	}
	if lf := m.LoadFactor(); lf <= 0 || lf > 1 {
		t.Errorf("load factor = %v", lf)
	}
	buckets := m.Stats().Buckets
	m.Clear()
	if m.Len() != 0 || m.Stats().Buckets != buckets {
		t.Error("Clear must drop entries but keep buckets")
	}
	if _, ok := m.Get("k5"); ok {
		t.Error("cleared key still present")
	}
	// The table remains usable after Clear.
	m.Put("fresh", 1)
	if v, ok := m.Get("fresh"); !ok || v != 1 {
		t.Error("table unusable after Clear")
	}
}

func TestSetReserveClear(t *testing.T) {
	s := NewTable[struct{}](hashes.STL, false)
	s.Reserve(1000)
	for i := 0; i < 1000; i++ {
		s.Insert(fmt.Sprintf("m%d", i))
	}
	if s.LoadFactor() > 1 {
		t.Errorf("load factor = %v", s.LoadFactor())
	}
	s.Clear()
	if s.Len() != 0 || s.Search("m1") {
		t.Error("Clear failed")
	}
}
