package sepe_test

import (
	"testing"
	"time"

	"github.com/sepe-go/sepe"
)

// The adaptive read-path acceptance bar: AdaptiveHash.Hash in the
// healthy steady state is one atomic pointer load plus a sampling
// check on top of the raw specialized function, and must stay within
// 10% of it. A map built from the AdaptiveHash adds the per-op
// migration tick. Numbers are recorded in BENCH_adaptive.json.

func benchAdaptiveSetup(b *testing.B) (*sepe.AdaptiveHash, sepe.HashFunc, []string) {
	b.Helper()
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		b.Fatal(err)
	}
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		b.Fatal(err)
	}
	ah, err := sepe.NewAdaptiveHash("bench", f, sepe.Pext, sepe.AdaptiveConfig{
		Registry: sepe.NewMetricsRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(ah.Close)
	return ah, h.Func(), f.Samples(1024, 42)
}

func BenchmarkAdaptivePextRaw(b *testing.B) {
	_, fn, keys := benchAdaptiveSetup(b)
	benchHash(b, fn, keys)
}

func BenchmarkAdaptivePextHash(b *testing.B) {
	ah, _, keys := benchAdaptiveSetup(b)
	benchHash(b, ah.Func(), keys)
}

func BenchmarkAdaptiveMapPut(b *testing.B) {
	ah, _, keys := benchAdaptiveSetup(b)
	m := sepe.NewMap[int](ah)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Put(keys[i%len(keys)], i)
	}
}

func BenchmarkPlainMapPut(b *testing.B) {
	_, fn, keys := benchAdaptiveSetup(b)
	m := sepe.NewMap[int](fn)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Put(keys[i%len(keys)], i)
	}
}

func BenchmarkAdaptiveMapGet(b *testing.B) {
	ah, _, keys := benchAdaptiveSetup(b)
	m := sepe.NewMap[int](ah)
	for i, k := range keys {
		m.Put(k, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc int
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(keys[i%len(keys)])
		acc += v
	}
	telemetrySink = uint64(acc)
}

func BenchmarkPlainMapGet(b *testing.B) {
	_, fn, keys := benchAdaptiveSetup(b)
	m := sepe.NewMap[int](fn)
	for i, k := range keys {
		m.Put(k, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var acc int
	for i := 0; i < b.N; i++ {
		v, _ := m.Get(keys[i%len(keys)])
		acc += v
	}
	telemetrySink = uint64(acc)
}

// TestAdaptiveReadPathZeroAllocs: the steady-state read path may not
// allocate — neither the hash nor a container lookup.
func TestAdaptiveReadPathZeroAllocs(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	ah, err := sepe.NewAdaptiveHash("alloc", f, sepe.Pext, sepe.AdaptiveConfig{
		Registry: sepe.NewMetricsRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()
	key := f.Samples(1, 9)[0]
	if n := testing.AllocsPerRun(1000, func() { ah.Hash(key) }); n != 0 {
		t.Errorf("adaptive Hash allocates %.1f per op", n)
	}
	m := sepe.NewMap[int](ah)
	m.Put(key, 1)
	// Let the sampled Observe of the Put settle before measuring.
	time.Sleep(time.Millisecond)
	if n := testing.AllocsPerRun(1000, func() { m.Get(key) }); n != 0 {
		t.Errorf("adaptive Get allocates %.1f per op", n)
	}
}
