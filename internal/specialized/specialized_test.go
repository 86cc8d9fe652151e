package specialized

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/hashes"
	"github.com/sepe-go/sepe/internal/rex"
)

// ssnHash synthesizes the bijective Pext function for SSNs.
func ssnHash(t testing.TB) hashes.Func {
	t.Helper()
	pat, err := rex.ParseAndLower(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := core.Synthesize(pat, core.Pext, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fn.Plan().Bijective() {
		t.Fatal("SSN Pext must be bijective")
	}
	return fn.Func()
}

func ssnKey(i int) string {
	return fmt.Sprintf("%03d-%02d-%04d", i%1000, (i/17)%100, (i*31)%10000)
}

func TestNewMapRequiresBijective(t *testing.T) {
	if _, err := NewMap[int](hashes.STL, false); err == nil {
		t.Error("bijective=false must be rejected")
	}
}

func TestMapBasics(t *testing.T) {
	m, err := NewMap[int](ssnHash(t), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("123-45-6789"); ok {
		t.Error("empty map must miss")
	}
	if !m.Put("123-45-6789", 1) {
		t.Error("first Put must be new")
	}
	if m.Put("123-45-6789", 2) {
		t.Error("second Put must replace")
	}
	if v, ok := m.Get("123-45-6789"); !ok || v != 2 {
		t.Errorf("Get = %d,%v", v, ok)
	}
	if !m.Delete("123-45-6789") || m.Delete("123-45-6789") {
		t.Error("Delete semantics wrong")
	}
	if m.Len() != 0 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMapManyKeysAndGrowth(t *testing.T) {
	m, err := NewMap[int](ssnHash(t), true)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	seen := map[string]int{}
	for i := 0; i < n; i++ {
		k := ssnKey(i)
		m.Put(k, i)
		seen[k] = i
	}
	if m.Len() != len(seen) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(seen))
	}
	for k, want := range seen {
		if v, ok := m.Get(k); !ok || v != want {
			t.Fatalf("Get(%q) = %d,%v, want %d", k, v, ok, want)
		}
	}
	if l := m.Load(); l > 0.75 {
		t.Errorf("load factor %v exceeds 0.75", l)
	}
}

func TestMapDeleteReinsertChurn(t *testing.T) {
	// Tombstone handling: repeated delete/insert cycles must not lose
	// entries or degrade into an infinite probe.
	m, err := NewMap[int](ssnHash(t), true)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < 500; i++ {
			m.Put(ssnKey(i), round*1000+i)
		}
		for i := 0; i < 500; i += 2 {
			if !m.Delete(ssnKey(i)) {
				t.Fatalf("round %d: lost key %d", round, i)
			}
		}
		for i := 1; i < 500; i += 2 {
			if v, ok := m.Get(ssnKey(i)); !ok || v != round*1000+i {
				t.Fatalf("round %d: Get(%d) = %d,%v", round, i, v, ok)
			}
		}
	}
}

func TestMapMatchesBuiltin(t *testing.T) {
	h := ssnHash(t)
	f := func(ops []uint16) bool {
		m, err := NewMap[int](h, true)
		if err != nil {
			return false
		}
		ref := map[string]int{}
		for i, op := range ops {
			k := ssnKey(int(op % 128))
			switch op % 3 {
			case 0:
				m.Put(k, i)
				ref[k] = i
			case 1:
				got, ok := m.Get(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					return false
				}
			case 2:
				_, existed := ref[k]
				delete(ref, k)
				if m.Delete(k) != existed {
					return false
				}
			}
			if m.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDirectTableBounds(t *testing.T) {
	if _, err := NewDirectTable[int](hashes.STL, 0); err == nil {
		t.Error("0 bits must be rejected")
	}
	if _, err := NewDirectTable[int](hashes.STL, MaxDirectBits+1); err == nil {
		t.Error("too many bits must be rejected")
	}
}

func TestDirectTableRoundTrip(t *testing.T) {
	// A 4-digit format packs into 16 bits (4 nibbles): the forced
	// short-key Pext plan of RQ7's worst-case study.
	pat, err := rex.ParseAndLower(`[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := core.Synthesize(pat, core.Pext, core.Options{AllowShort: true})
	if err != nil {
		t.Fatal(err)
	}
	dt, err := NewDirectTable[string](fn.Func(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := dt.Put(fmt.Sprintf("%04d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if dt.Len() != 10000 {
		t.Fatalf("Len = %d", dt.Len())
	}
	for i := 0; i < 10000; i += 7 {
		v, ok := dt.Get(fmt.Sprintf("%04d", i))
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%04d) = %q,%v", i, v, ok)
		}
	}
	if !dt.Delete("0042") || dt.Delete("0042") {
		t.Error("Delete semantics wrong")
	}
	if _, ok := dt.Get("0042"); ok {
		t.Error("deleted key still present")
	}
	if dt.Len() != 9999 {
		t.Errorf("Len after delete = %d", dt.Len())
	}
}

func TestDirectTableRejectsOutOfRangeHash(t *testing.T) {
	// STL hashes exceed any 24-bit bound almost surely.
	dt, err := NewDirectTable[int](hashes.STL, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.Put("anything", 1); err == nil {
		t.Error("out-of-range hash must be rejected")
	}
	if _, ok := dt.Get("anything"); ok {
		t.Error("out-of-range Get must miss")
	}
	if dt.Delete("anything") {
		t.Error("out-of-range Delete must be false")
	}
}

// BenchmarkSpecializedVsChained compares the bijective open-addressing
// map against the chained std::unordered_map equivalent — the payoff
// the paper's future-work section anticipates.
func BenchmarkSpecializedVsChained(b *testing.B) {
	h := ssnHash(b)
	const n = 10000
	pool := make([]string, n)
	for i := range pool {
		pool[i] = ssnKey(i)
	}
	b.Run("specialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, _ := NewMap[int](h, true)
			for j, k := range pool {
				m.Put(k, j)
			}
			hits := 0
			for _, k := range pool {
				if _, ok := m.Get(k); ok {
					hits++
				}
			}
			benchSink += hits
		}
	})
	b.Run("chained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := container.NewTable[int](h, false)
			for j, k := range pool {
				m.Put(k, j)
			}
			hits := 0
			for _, k := range pool {
				if _, ok := m.Get(k); ok {
					hits++
				}
			}
			benchSink += hits
		}
	})
}

var benchSink int
