package shard

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/hashes"
)

func TestShardOptions(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {1000, 1024},
	}
	for _, c := range cases {
		if got := NewTable[int](hashes.STL, false, c.in).Shards(); got != c.want {
			t.Errorf("NewTable(%d shards): got %d shards, want %d", c.in, got, c.want)
		}
	}
	if n := shardCount(0); n&(n-1) != 0 || n < 8 || n != defaultShards() {
		t.Errorf("default shard count %d: want power of two >= 8", n)
	}
	if n := shardCount(-3); n != defaultShards() {
		t.Errorf("shardCount(-3) = %d, want default %d", n, defaultShards())
	}
}

// TestShardLockIsOneCacheLine pins the stripe's padding: a stripe that
// is not exactly 64 bytes shares a cache line with its neighbour, and
// two shards' locks would then false-share with no test failing.
func TestShardLockIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(shardLock{}); size != 64 {
		t.Fatalf("shardLock is %d bytes, want 64", size)
	}
}

// TestShardRouting pins the top-bit routing: every key must land in
// the shard its hash's high bits name, and a single-shard container
// (shift 64) must route everything to shard 0.
func TestShardRouting(t *testing.T) {
	m := NewTable[int](hashes.STL, false, 16)
	if m.Shards() != 16 {
		t.Fatalf("Shards() = %d, want 16", m.Shards())
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%04d", i)
		h := hashes.STL(k)
		want := int(h >> 60)
		if got := m.shardOf(h); got != want {
			t.Fatalf("shardOf(%q) = %d, want %d (top 4 bits)", k, got, want)
		}
	}
	one := NewTable[int](hashes.STL, false, 1)
	for i := 0; i < 100; i++ {
		if s := one.shardOf(hashes.STL(fmt.Sprintf("k%d", i))); s != 0 {
			t.Fatalf("single-shard shardOf = %d, want 0", s)
		}
	}
}

// TestMergeStats pins the merge semantics the telemetry fix demands:
// additive sizes/collisions, MAX (not average) of MaxBucketLen.
func TestMergeStats(t *testing.T) {
	parts := []container.Stats{
		{Size: 10, Buckets: 17, BucketCollisions: 2, MaxBucketLen: 3},
		{Size: 20, Buckets: 17, BucketCollisions: 0, MaxBucketLen: 9},
		{Size: 5, Buckets: 17, BucketCollisions: 1, MaxBucketLen: 1},
	}
	got := mergeStats(parts)
	if got.Size != 35 || got.Buckets != 51 || got.BucketCollisions != 3 {
		t.Errorf("additive fields wrong: %+v", got)
	}
	if got.MaxBucketLen != 9 {
		t.Errorf("MaxBucketLen = %d, want max 9 (averaging would report ~4)", got.MaxBucketLen)
	}
}

// TestMergeStatsSingleShard is the regression test for the stats
// merge: with one shard, the merged view must equal a plain container
// fed the identical operations.
func TestMergeStatsSingleShard(t *testing.T) {
	sharded := NewTable[int](hashes.STL, false, 1)
	plain := container.NewTable[int](hashes.STL, false)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%03d", i)
		sharded.Put(k, i)
		plain.Put(k, i)
	}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i*3)
		sharded.Delete(k)
		plain.Delete(k)
	}
	if got, want := sharded.Stats(), plain.Stats(); got != want {
		t.Errorf("single-shard merged stats %+v != plain container stats %+v", got, want)
	}
	if got, want := sharded.Len(), plain.Len(); got != want {
		t.Errorf("Len() = %d, want %d", got, want)
	}
}

func TestBatchMatchesLoop(t *testing.T) {
	keys := make([]string, 300)
	vals := make([]int, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("batch-%03d", i)
		vals[i] = i * 7
	}
	batch := NewTable[int](hashes.STL, false, 8)
	ops := batch.PutBatch(keys, vals)
	loop := NewTable[int](hashes.STL, false, 8)
	for i, k := range keys {
		// Each key counts on its own shard, in key order within it, as
		// the same puts one by one do.
		if _, n := loop.Put(k, vals[i]); n != ops[i] {
			t.Fatalf("PutBatch counted %q as op %d of its shard, looped Put %d", k, ops[i], n)
		}
	}
	if batch.Len() != loop.Len() {
		t.Fatalf("PutBatch Len %d != looped %d", batch.Len(), loop.Len())
	}
	got := make([]int, len(keys))
	ok := make([]bool, len(keys))
	ops = batch.GetBatch(keys, got, ok)
	for i, k := range keys {
		want, found, n := loop.Get(k)
		if ok[i] != found || got[i] != want {
			t.Fatalf("GetBatch[%q] = (%d,%v), loop Get = (%d,%v)", k, got[i], ok[i], want, found)
		}
		if n != ops[i] {
			t.Fatalf("GetBatch counted %q as op %d of its shard, looped Get %d", k, ops[i], n)
		}
	}
	// Missing keys must come back found=false without disturbing hits.
	mixed := append([]string{"absent-a"}, keys[:5]...)
	mv := make([]int, len(mixed))
	mo := make([]bool, len(mixed))
	batch.GetBatch(mixed, mv, mo)
	if mo[0] {
		t.Errorf("GetBatch reported absent key present")
	}
	for i := 1; i < len(mixed); i++ {
		if !mo[i] || mv[i] != vals[i-1] {
			t.Errorf("GetBatch[%q] = (%d,%v), want (%d,true)", mixed[i], mv[i], mo[i], vals[i-1])
		}
	}
}

func TestSetBatch(t *testing.T) {
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("s-%03d", i)
	}
	s := NewTable[struct{}](hashes.STL, false, 4)
	s.PutBatch(keys, make([]struct{}, len(keys)))
	if s.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(keys))
	}
	probe := append([]string{"missing"}, keys[10:20]...)
	found := make([]bool, len(probe))
	s.GetBatch(probe, make([]struct{}, len(probe)), found)
	if found[0] {
		t.Errorf("GetBatch found a missing key")
	}
	for i := 1; i < len(probe); i++ {
		if !found[i] {
			t.Errorf("GetBatch missed member %q", probe[i])
		}
	}
}

// TestShardedMapParallel hammers one map with writers, readers and
// deleters, then cross-checks the final state against a mutex-guarded
// map[string]int oracle fed the same deterministic operations. Each
// writer owns a disjoint key range, so the final state is independent
// of scheduling. Run under -race this is the data-race probe for the
// whole lock-striping layer.
func TestShardedMapParallel(t *testing.T) {
	const (
		writers = 4
		readers = 3
		perG    = 600
	)
	m := NewTable[int](hashes.STL, false, 8)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("w%d-%04d", w, i)
				m.Put(k, w*perG+i)
				if i%3 == 0 {
					m.Delete(k)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("w%d-%04d", (r+i)%writers, i)
				if v, ok, _ := m.Get(k); ok {
					// A concurrent read may or may not find the key, but a
					// found value must be the one its owner wrote.
					if want := ((r+i)%writers)*perG + i; v != want {
						t.Errorf("Get(%q) = %d, want %d", k, v, want)
					}
				}
				m.Len() // exercise the multi-shard read path too
			}
		}(r)
	}
	wg.Wait()

	oracle := make(map[string]int)
	for w := 0; w < writers; w++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("w%d-%04d", w, i)
			oracle[k] = w*perG + i
			if i%3 == 0 {
				delete(oracle, k)
			}
		}
	}
	if m.Len() != len(oracle) {
		t.Fatalf("final Len = %d, oracle has %d", m.Len(), len(oracle))
	}
	for k, want := range oracle {
		if v, ok, _ := m.Get(k); !ok || v != want {
			t.Fatalf("final Get(%q) = (%d,%v), oracle %d", k, v, ok, want)
		}
	}
	var keys []string
	var vals []int
	for i := 0; i < m.Shards(); i++ {
		keys, vals = m.Snapshot(i, keys, vals)
	}
	for i, k := range keys {
		if want, ok := oracle[k]; !ok || vals[i] != want {
			t.Errorf("Snapshot holds %q=%d not in oracle", k, vals[i])
		}
	}
}

func TestShardedSetParallel(t *testing.T) {
	const gs, perG = 6, 500
	s := NewTable[struct{}](hashes.STL, false, 8)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("g%d-%04d", g, i)
				s.Put(k, struct{}{})
				s.Get(k)
				if i%4 == 0 {
					s.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	oracle := make(map[string]bool)
	for g := 0; g < gs; g++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("g%d-%04d", g, i)
			oracle[k] = true
			if i%4 == 0 {
				delete(oracle, k)
			}
		}
	}
	if s.Len() != len(oracle) {
		t.Fatalf("final Len = %d, oracle has %d", s.Len(), len(oracle))
	}
	for k := range oracle {
		if _, ok, _ := s.Get(k); !ok {
			t.Fatalf("member %q missing", k)
		}
	}
}

func TestShardedMultiMapParallel(t *testing.T) {
	const gs, perG = 4, 400
	m := NewTable[int](hashes.STL, true, 8)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("g%d-%03d", g, i%50) // 50 keys, many dups
				m.Put(k, i)
				m.Count(k)
				if i%7 == 0 {
					m.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	oracle := make(map[string]int)
	for g := 0; g < gs; g++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("g%d-%03d", g, i%50)
			oracle[k]++
			if i%7 == 0 {
				delete(oracle, k)
			}
		}
	}
	total := 0
	for k, want := range oracle {
		total += want
		if got, _ := m.Count(k); got != want {
			t.Fatalf("Count(%q) = %d, oracle %d", k, got, want)
		}
		if vs, _ := m.GetAll(k); len(vs) != want {
			t.Fatalf("len(GetAll(%q)) = %d, oracle %d", k, len(vs), want)
		}
	}
	if m.Len() != total {
		t.Fatalf("final Len = %d, oracle total %d", m.Len(), total)
	}
}

func TestShardedMultiSetParallel(t *testing.T) {
	const gs, perG = 4, 400
	s := NewTable[struct{}](hashes.STL, true, 8)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("g%d-%03d", g, i%40)
				s.Put(k, struct{}{})
				s.Count(k)
				if i%9 == 0 {
					s.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
	oracle := make(map[string]int)
	for g := 0; g < gs; g++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("g%d-%03d", g, i%40)
			oracle[k]++
			if i%9 == 0 {
				delete(oracle, k)
			}
		}
	}
	total := 0
	for k, want := range oracle {
		total += want
		if got, _ := s.Count(k); got != want {
			t.Fatalf("Count(%q) = %d, oracle %d", k, got, want)
		}
	}
	if s.Len() != total {
		t.Fatalf("final Len = %d, oracle total %d", s.Len(), total)
	}
}

// TestShardedBatchParallel runs concurrent batch producers against
// concurrent batch readers — the lock-per-shard-per-batch path under
// contention.
func TestShardedBatchParallel(t *testing.T) {
	const gs, batch = 4, 128
	m := NewTable[int](hashes.STL, false, 8)
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([]string, batch)
			vals := make([]int, batch)
			for round := 0; round < 10; round++ {
				for i := range keys {
					keys[i] = fmt.Sprintf("g%d-r%d-%03d", g, round, i)
					vals[i] = g<<16 | round<<8 | i
				}
				m.PutBatch(keys, vals)
				got := make([]int, batch)
				ok := make([]bool, batch)
				m.GetBatch(keys, got, ok)
				for i := range keys {
					if !ok[i] || got[i] != vals[i] {
						t.Errorf("GetBatch[%q] = (%d,%v) after own PutBatch", keys[i], got[i], ok[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if want := gs * 10 * batch; m.Len() != want {
		t.Fatalf("final Len = %d, want %d", m.Len(), want)
	}
}

// TestShardedMigration drives a whole-container hash swap: all keys
// must remain reachable during and after the per-shard incremental
// drains, under concurrent readers.
func TestShardedMigration(t *testing.T) {
	m := NewTable[int](hashes.STL, false, 4)
	const n = 800
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("key-%04d", i), i)
	}
	m.BeginMigration(hashes.FNV)
	if !m.Migrating() {
		t.Fatal("Migrating() = false right after BeginMigration")
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := fmt.Sprintf("key-%04d", (i*7+r)%n)
				if v, ok, _ := m.Get(k); !ok || v != (i*7+r)%n {
					t.Errorf("mid-migration Get(%q) = (%d,%v)", k, v, ok)
					return
				}
			}
		}(r)
	}
	for m.MigrateStep(8) {
	}
	wg.Wait()
	if m.Migrating() {
		t.Fatal("Migrating() = true after drain completed")
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if v, ok, _ := m.Get(k); !ok || v != i {
			t.Fatalf("post-migration Get(%q) = (%d,%v), want (%d,true)", k, v, ok, i)
		}
	}
	// New writes after the swap must keep working: the shard tables
	// now probe with the new function while routing keeps the old.
	m.Put("post-swap", 1)
	if v, ok, _ := m.Get("post-swap"); !ok || v != 1 {
		t.Fatalf("post-swap Put/Get = (%d,%v)", v, ok)
	}
}

// oneShard routes every key to shard 0: its top byte is always zero.
func oneShard(k string) uint64 { return hashes.STL(k) >> 8 }

// TestMigrationStepsOnlyMigratingShards puts every key in one shard:
// stepping must skip the shards that have finished, so the migration
// ends within ⌈retired buckets / k⌉ steps of the hot shard plus one
// per other shard.
func TestMigrationStepsOnlyMigratingShards(t *testing.T) {
	const shards, n, k = 8, 4000, 16
	m := NewTable[int](oneShard, false, shards)
	for i := 0; i < n; i++ {
		m.Put(fmt.Sprintf("key-%05d", i), i)
	}
	st := m.ShardStats()
	if st[0].Size != n {
		t.Fatalf("shard 0 holds %d of %d keys; the router did not concentrate them", st[0].Size, n)
	}
	retired := st[0].Buckets
	m.BeginMigration(hashes.FNV)
	if got := m.active.Load(); got != shards {
		t.Fatalf("migrating count %d after BeginMigration, want %d", got, shards)
	}
	calls := 1
	for m.MigrateStep(k) {
		calls++
	}
	if bound := (retired+k-1)/k + shards; calls > bound {
		t.Fatalf("migration took %d MigrateStep calls, want at most %d (%d retired buckets, k=%d, %d shards)", calls, bound, retired, k, shards)
	}
	if m.Migrating() {
		t.Fatal("Migrating() = true right after MigrateStep returned false")
	}
	for i := range m.tabs {
		if m.tabs[i].Migrating() || m.locks[i].migrating.Load() {
			t.Fatalf("shard %d still migrating after the last step", i)
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%05d", i)
		if v, ok, _ := m.Get(key); !ok || v != i {
			t.Fatalf("post-migration Get(%q) = (%d,%v)", key, v, ok)
		}
	}
}

// TestClearDuringMigrationResetsCount checks that Clear ends every
// shard's migration and zeroes the count, and that the next migration
// counts from scratch.
func TestClearDuringMigrationResetsCount(t *testing.T) {
	const shards = 4
	m := NewTable[int](hashes.STL, false, shards)
	for i := 0; i < 1000; i++ {
		m.Put(fmt.Sprintf("key-%04d", i), i)
	}
	m.BeginMigration(hashes.FNV)
	m.MigrateStep(4)
	m.MigrateStep(4)
	m.Clear()
	if m.Migrating() || m.active.Load() != 0 {
		t.Fatalf("after Clear: Migrating() = %v, count %d", m.Migrating(), m.active.Load())
	}
	if m.MigrateStep(4) {
		t.Fatal("MigrateStep after Clear reported a migration in progress")
	}
	m.Put("a", 1)
	m.BeginMigration(hashes.STL)
	if got := m.active.Load(); got != shards {
		t.Fatalf("migrating count %d after the next BeginMigration, want %d", got, shards)
	}
	for m.MigrateStep(4) {
	}
	if m.active.Load() != 0 {
		t.Fatalf("migrating count %d after the drain", m.active.Load())
	}
	if v, ok, _ := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = (%d,%v) after the second migration", v, ok)
	}
}

// TestMigrationConcurrentOps runs Put, Get, MigrateStep, BeginMigration
// and Clear concurrently; under -race it probes the migrating flags and
// count. A found value must be the one every writer stores for its key,
// and once the goroutines stop, the count must equal the shards whose
// tables still migrate.
func TestMigrationConcurrentOps(t *testing.T) {
	const shards, perG = 4, 3000
	m := NewTable[int](hashes.STL, false, shards)
	funcs := []hashes.Func{hashes.FNV, hashes.STL, hashes.FNV1}
	key := func(i int) string { return fmt.Sprintf("key-%04d", i%1500) }
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				f(i)
			}
		}()
	}
	run(func(i int) { m.Put(key(i), i%1500) })
	run(func(i int) { m.Put(key(i*7), (i*7)%1500) })
	run(func(i int) {
		if v, ok, _ := m.Get(key(i * 3)); ok && v != (i*3)%1500 {
			t.Errorf("Get(%q) = %d, want %d", key(i*3), v, (i*3)%1500)
		}
	})
	run(func(int) { m.MigrateStep(2) })
	run(func(int) { m.MigrateStep(5) })
	run(func(i int) {
		switch {
		case i%200 == 0:
			m.BeginMigration(funcs[(i/200)%len(funcs)])
		case i%700 == 350:
			m.Clear()
		}
	})
	wg.Wait()
	want := 0
	for i := range m.tabs {
		m.locks[i].Lock()
		mg := m.tabs[i].Migrating()
		if mg != m.locks[i].migrating.Load() {
			t.Errorf("shard %d: flag %v, table migrating %v", i, m.locks[i].migrating.Load(), mg)
		}
		if mg {
			want++
		}
		m.locks[i].Unlock()
	}
	if got := m.active.Load(); got != int64(want) {
		t.Fatalf("migrating count %d, want %d shards still migrating", got, want)
	}
	for m.MigrateStep(8) {
	}
	for i := range m.tabs {
		if m.tabs[i].Migrating() {
			t.Fatalf("shard %d still migrating after the drain", i)
		}
	}
}
