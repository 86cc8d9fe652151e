package sepe_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/sepe-go/sepe"
)

// The concurrency grid recorded in BENCH_parallel.json: the sharded
// containers against a mutex-wrapped plain container (the baseline a
// user would write today) at 1, 4 and GOMAXPROCS goroutines, plus the
// batch-vs-loop comparisons that isolate what batching amortizes
// (hash-closure dispatch and per-key lock traffic). Run via
// `make benchparallel`.
//
// Goroutine counts above GOMAXPROCS measure contention behavior, not
// parallel speedup: on a single-CPU host the scheduler serializes
// everything and the striping can only show parity, while the mutex
// baseline additionally pays handoff stalls as writers pile up.

func parallelKeys(b *testing.B, n int) []string {
	b.Helper()
	format, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		b.Fatal(err)
	}
	return format.Samples(n, 17)
}

func parallelHash(b *testing.B) *sepe.Hash {
	b.Helper()
	format, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		b.Fatal(err)
	}
	h, err := sepe.Synthesize(format, sepe.Pext)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// mutexMap is the baseline: the plain single-goroutine Map made
// concurrent the obvious way, with one global mutex.
type mutexMap struct {
	mu sync.Mutex
	m  *sepe.Map[int]
}

func (m *mutexMap) Put(k string, v int) {
	m.mu.Lock()
	m.m.Put(k, v)
	m.mu.Unlock()
}

func (m *mutexMap) Get(k string) (int, bool) {
	m.mu.Lock()
	v, ok := m.m.Get(k)
	m.mu.Unlock()
	return v, ok
}

// driveParallel splits b.N mixed operations (1 put per 8 gets, the
// read-heavy shape of a lookup service) over g goroutines.
func driveParallel(b *testing.B, g int, keys []string, put func(string, int), get func(string)) {
	b.Helper()
	var wg sync.WaitGroup
	per := b.N/g + 1
	b.ResetTimer()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := keys[(w*per+i)%len(keys)]
				if i&7 == 0 {
					put(k, i)
				} else {
					get(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

func goroutineCounts() []int {
	gs := []int{1, 4}
	if max := runtime.GOMAXPROCS(0); max != 1 && max != 4 {
		gs = append(gs, max)
	}
	return gs
}

func BenchmarkParallelMap(b *testing.B) {
	keys := parallelKeys(b, 4096)
	hash := parallelHash(b)
	for _, g := range goroutineCounts() {
		b.Run(fmt.Sprintf("sharded/goroutines=%d", g), func(b *testing.B) {
			m := sepe.NewMap[int](hash.Func(), sepe.Sharded(0))
			for i, k := range keys {
				m.Put(k, i)
			}
			b.ReportAllocs()
			driveParallel(b, g, keys,
				func(k string, v int) { m.Put(k, v) },
				func(k string) { m.Get(k) })
		})
		b.Run(fmt.Sprintf("mutex/goroutines=%d", g), func(b *testing.B) {
			m := &mutexMap{m: sepe.NewMap[int](hash.Func())}
			for i, k := range keys {
				m.Put(k, i)
			}
			b.ReportAllocs()
			driveParallel(b, g, keys,
				func(k string, v int) { m.Put(k, v) },
				func(k string) { m.Get(k) })
		})
	}
}

func BenchmarkParallelSet(b *testing.B) {
	keys := parallelKeys(b, 4096)
	hash := parallelHash(b)
	for _, g := range goroutineCounts() {
		b.Run(fmt.Sprintf("sharded/goroutines=%d", g), func(b *testing.B) {
			s := sepe.NewSet(hash.Func(), sepe.Sharded(0))
			for _, k := range keys {
				s.Add(k)
			}
			driveParallel(b, g, keys,
				func(k string, _ int) { s.Add(k) },
				func(k string) { s.Has(k) })
		})
		b.Run(fmt.Sprintf("mutex/goroutines=%d", g), func(b *testing.B) {
			var mu sync.Mutex
			s := sepe.NewSet(hash.Func())
			for _, k := range keys {
				s.Add(k)
			}
			driveParallel(b, g, keys,
				func(k string, _ int) { mu.Lock(); s.Add(k); mu.Unlock() },
				func(k string) { mu.Lock(); s.Has(k); mu.Unlock() })
		})
	}
}

// BenchmarkHashBatch isolates the dispatch amortization: the same
// keys through HashBatch versus a loop of Hash calls.
func BenchmarkHashBatch(b *testing.B) {
	keys := parallelKeys(b, 1024)
	hash := parallelHash(b)
	out := make([]uint64, len(keys))
	b.Run("batch", func(b *testing.B) {
		b.SetBytes(int64(len(keys)))
		for i := 0; i < b.N; i++ {
			hash.HashBatch(keys, out)
		}
	})
	b.Run("loop", func(b *testing.B) {
		b.SetBytes(int64(len(keys)))
		for i := 0; i < b.N; i++ {
			for j, k := range keys {
				out[j] = hash.Hash(k)
			}
		}
	})
}

// BenchmarkPutGetBatch measures the lock-amortized container batch
// path against per-key calls on the same sharded map.
func BenchmarkPutGetBatch(b *testing.B) {
	keys := parallelKeys(b, 1024)
	hash := parallelHash(b)
	vals := make([]int, len(keys))
	for i := range vals {
		vals[i] = i
	}
	b.Run("putbatch", func(b *testing.B) {
		m := sepe.NewMap[int](hash.Func(), sepe.Sharded(0))
		b.SetBytes(int64(len(keys)))
		for i := 0; i < b.N; i++ {
			m.PutBatch(keys, vals)
		}
	})
	b.Run("putloop", func(b *testing.B) {
		m := sepe.NewMap[int](hash.Func(), sepe.Sharded(0))
		b.SetBytes(int64(len(keys)))
		for i := 0; i < b.N; i++ {
			for j, k := range keys {
				m.Put(k, vals[j])
			}
		}
	})
	b.Run("getbatch", func(b *testing.B) {
		m := sepe.NewMap[int](hash.Func(), sepe.Sharded(0))
		m.PutBatch(keys, vals)
		got := make([]int, len(keys))
		ok := make([]bool, len(keys))
		b.SetBytes(int64(len(keys)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.GetBatch(keys, got, ok)
		}
	})
	b.Run("getloop", func(b *testing.B) {
		m := sepe.NewMap[int](hash.Func(), sepe.Sharded(0))
		m.PutBatch(keys, vals)
		b.SetBytes(int64(len(keys)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				m.Get(k)
			}
		}
	})
}
