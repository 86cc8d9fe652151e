package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
)

// runParallel drives all four container shapes from n goroutines,
// comparing the lock-striped sharded containers against the obvious
// baseline (the single-goroutine container behind one mutex), and
// reports ops/sec plus the batch-amortization ratios. This is the
// concurrency counterpart of the paper's Table 1 driver: same key
// type, same synthesized function, contention as the variable.
func runParallel(n int) error {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	const (
		keyCount = 4096
		totalOps = 2_000_000
	)
	t := keys.SSN
	format, err := sepe.ParseRegex(t.Regex())
	if err != nil {
		return err
	}
	hash, err := sepe.Synthesize(format, sepe.Pext)
	if err != nil {
		return err
	}
	ks := format.Samples(keyCount, 17)

	fmt.Printf("Parallel container drive: %d goroutines, %d ops, %s keys, %s (GOMAXPROCS=%d)\n\n",
		n, totalOps, t.Name(), hash, runtime.GOMAXPROCS(0))
	fmt.Printf("  %-10s %14s %14s %9s\n", "shape", "sharded op/s", "mutex op/s", "speedup")

	shapes := []struct {
		name    string
		sharded func() (put, get func(string))
		mutexed func() (put, get func(string))
	}{
		{
			"map",
			func() (func(string), func(string)) {
				m := sepe.NewMap[int](hash.Func(), sepe.Sharded(0))
				return func(k string) { m.Put(k, 1) }, func(k string) { m.Get(k) }
			},
			func() (func(string), func(string)) {
				var mu sync.Mutex
				m := sepe.NewMap[int](hash.Func())
				return func(k string) { mu.Lock(); m.Put(k, 1); mu.Unlock() },
					func(k string) { mu.Lock(); m.Get(k); mu.Unlock() }
			},
		},
		{
			"set",
			func() (func(string), func(string)) {
				s := sepe.NewSet(hash.Func(), sepe.Sharded(0))
				return func(k string) { s.Add(k) }, func(k string) { s.Has(k) }
			},
			func() (func(string), func(string)) {
				var mu sync.Mutex
				s := sepe.NewSet(hash.Func())
				return func(k string) { mu.Lock(); s.Add(k); mu.Unlock() },
					func(k string) { mu.Lock(); s.Has(k); mu.Unlock() }
			},
		},
		{
			"multimap",
			func() (func(string), func(string)) {
				m := sepe.NewMultiMap[int](hash.Func(), sepe.Sharded(0))
				return func(k string) { m.Put(k, 1); m.Delete(k) }, func(k string) { m.Count(k) }
			},
			func() (func(string), func(string)) {
				var mu sync.Mutex
				m := sepe.NewMultiMap[int](hash.Func())
				return func(k string) { mu.Lock(); m.Put(k, 1); m.Delete(k); mu.Unlock() },
					func(k string) { mu.Lock(); m.Count(k); mu.Unlock() }
			},
		},
		{
			"multiset",
			func() (func(string), func(string)) {
				s := sepe.NewMultiSet(hash.Func(), sepe.Sharded(0))
				return func(k string) { s.Add(k); s.Delete(k) }, func(k string) { s.Has(k) }
			},
			func() (func(string), func(string)) {
				var mu sync.Mutex
				s := sepe.NewMultiSet(hash.Func())
				return func(k string) { mu.Lock(); s.Add(k); s.Delete(k); mu.Unlock() },
					func(k string) { mu.Lock(); s.Has(k); mu.Unlock() }
			},
		},
	}

	drive := func(put, get func(string)) float64 {
		var wg sync.WaitGroup
		per := totalOps / n
		start := time.Now()
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					k := ks[(w*per+i)%len(ks)]
					if i&7 == 0 {
						put(k)
					} else {
						get(k)
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(per*n) / time.Since(start).Seconds()
	}

	for _, sh := range shapes {
		sp, sg := sh.sharded()
		sOps := drive(sp, sg)
		mp, mg := sh.mutexed()
		mOps := drive(mp, mg)
		fmt.Printf("  %-10s %14.0f %14.0f %8.2fx\n", sh.name, sOps, mOps, sOps/mOps)
	}

	// Batch amortization on one goroutine: what HashBatch/PutBatch
	// save regardless of core count.
	out := make([]uint64, len(ks))
	vals := make([]int, len(ks))
	rounds := totalOps / len(ks)

	start := time.Now()
	for r := 0; r < rounds; r++ {
		hash.HashBatch(ks, out)
	}
	batchHash := time.Since(start)
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for i, k := range ks {
			out[i] = hash.Hash(k)
		}
	}
	loopHash := time.Since(start)

	bm := sepe.NewMap[int](hash.Func(), sepe.Sharded(0))
	start = time.Now()
	for r := 0; r < rounds; r++ {
		bm.PutBatch(ks, vals)
	}
	batchPut := time.Since(start)
	lm := sepe.NewMap[int](hash.Func(), sepe.Sharded(0))
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for i, k := range ks {
			lm.Put(k, vals[i])
		}
	}
	loopPut := time.Since(start)

	fmt.Printf("\n  batch amortization (%d keys x %d rounds, 1 goroutine):\n", len(ks), rounds)
	fmt.Printf("    HashBatch vs loop: %v vs %v (%.2fx)\n",
		batchHash.Round(time.Millisecond), loopHash.Round(time.Millisecond),
		loopHash.Seconds()/batchHash.Seconds())
	fmt.Printf("    PutBatch  vs loop: %v vs %v (%.2fx)\n",
		batchPut.Round(time.Millisecond), loopPut.Round(time.Millisecond),
		loopPut.Seconds()/batchPut.Seconds())
	return nil
}
