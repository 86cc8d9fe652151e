package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 100, 1 << 30} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("Count = %d, want 7", s.Count)
	}
	if want := uint64(0 + 1 + 2 + 3 + 4 + 100 + 1<<30); s.Sum != want {
		t.Fatalf("Sum = %d, want %d", s.Sum, want)
	}
	// 0 lands in bucket 0, 1 in bucket 1, 2..3 in bucket 2, 4 in 3.
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 2 || s.Counts[3] != 1 {
		t.Fatalf("low buckets = %v", s.Counts[:4])
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d, want 0", got)
	}
	for i := 0; i < 99; i++ {
		h.Observe(10) // bucket [8,16)
	}
	h.Observe(1 << 20) // one outlier
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 16 {
		t.Fatalf("p50 = %d, want 16", got)
	}
	if got := s.Quantile(0.99); got != 16 {
		t.Fatalf("p99 = %d, want 16 (99 of 100 samples are 10)", got)
	}
	if got := s.Quantile(1); got != 1<<21 {
		t.Fatalf("max = %d, want %d (outlier bucket upper edge)", got, 1<<21)
	}
	if got := s.Quantile(0); got != 16 {
		t.Fatalf("p0 = %d, want 16", got)
	}
}

func TestHistogramExtremeValue(t *testing.T) {
	var h Histogram
	h.Observe(^uint64(0)) // must clamp into the last bucket, not panic
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestInstrumentCountsAndTimes(t *testing.T) {
	m := NewHashMetrics("test")
	d := NewDriftMonitor("test", func(string) bool { return true }, DriftConfig{})
	base := func(key string) uint64 { return uint64(len(key)) }
	fn := Instrument(base, m, d)
	// The count moves in whole batches: it trails by flushEvery-1
	// calls at most, and the flushEvery-th call publishes the batch.
	for i := 1; i <= flushEvery; i++ {
		fn("abc")
		if want := uint64(i / flushEvery * flushEvery); m.Calls() != want {
			t.Fatalf("after %d calls Calls = %d, want %d", i, m.Calls(), want)
		}
	}
	const n = 10 * flushEvery * timedEvery
	for i := flushEvery; i < n; i++ {
		if got := fn("abc"); got != 3 {
			t.Fatalf("wrapped hash = %d, want 3", got)
		}
	}
	if got := m.Calls(); got != n {
		t.Fatalf("Calls = %d, want %d (n is a multiple of the flush batch)", got, n)
	}
	snap := m.Snapshot()
	if snap.Sampled == 0 {
		t.Fatal("no latency samples after a full sampling cycle")
	}
	if snap.Sampled != n/(flushEvery*timedEvery) {
		t.Fatalf("Sampled = %d, want %d", snap.Sampled, n/(flushEvery*timedEvery))
	}
	// Each flush hands the drift monitor one key standing for the
	// flushEvery calls it publishes, and the monitor checks it.
	if ds := d.Snapshot(); ds.Observed != n || ds.Sampled != n/flushEvery {
		t.Fatalf("drift Observed = %d, Sampled = %d; want %d, %d", ds.Observed, ds.Sampled, n, n/flushEvery)
	}
}

func TestInstrumentNil(t *testing.T) {
	base := func(key string) uint64 { return 7 }
	if got := Instrument(base, nil, nil)("x"); got != 7 {
		t.Fatalf("nil instrument changed the function: %d", got)
	}
}

func TestInstrumentDriftOnly(t *testing.T) {
	d := NewDriftMonitor("d", func(k string) bool { return k == "ok" },
		DriftConfig{Window: 8, MinSamples: 4})
	fn := Instrument(func(string) uint64 { return 0 }, nil, d)
	for i := 0; i < 16; i++ {
		fn("bad")
	}
	if !d.Degraded() {
		t.Fatal("all-mismatch stream did not degrade")
	}
}

func TestContainerMetrics(t *testing.T) {
	m := NewContainerMetrics("map")
	m.Put("a", 0)
	m.Put("b", 2)
	m.Get("a", 1)
	m.Delete("b", 3)
	m.CollisionDelta(2)
	m.CollisionDelta(-1)
	m.Rehash(5)
	s := m.Snapshot()
	if s.Puts != 2 || s.Gets != 1 || s.Deletes != 1 || s.Rehashes != 1 {
		t.Fatalf("op counts = %+v", s)
	}
	if s.BucketCollisions != 5 {
		t.Fatalf("BucketCollisions = %d, want 5 (rehash recount wins)", s.BucketCollisions)
	}
	m.Reset()
	if got := m.BucketCollisions(); got != 0 {
		t.Fatalf("after Reset: %d", got)
	}
}

// TestBatchedContainerOpsSingleOwner pins the adapter's accounting on
// a single-owner table that deletes every third operation: put counts
// trail by fewer than flushChunk, every delete makes all counts exact,
// collision deltas apply at once, and the sampling phase survives the
// flushes (one put in probeSampleEvery is still sampled).
func TestBatchedContainerOpsSingleOwner(t *testing.T) {
	m := NewContainerMetrics("single")
	b := NewBatchedContainerOps(m)
	var puts, gets, dels uint64
	var bcoll int64
	for i := 0; i < 20000; i++ {
		switch {
		case i%3 == 2:
			b.Delete("k", 1, -1)
			dels++
			bcoll--
			if s := m.Snapshot(); s.Puts != puts || s.Gets != gets || s.Deletes != dels {
				t.Fatalf("op %d: after a delete counts are %d/%d/%d, want %d/%d/%d",
					i, s.Puts, s.Gets, s.Deletes, puts, gets, dels)
			}
		case i%7 == 0:
			b.Get("k", 2)
			gets++
		default:
			b.Put("k", 3, 1)
			puts++
			bcoll++
		}
		if got := m.BucketCollisions(); got != bcoll {
			t.Fatalf("op %d: BucketCollisions = %d, want %d", i, got, bcoll)
		}
		if s := m.Snapshot(); s.Puts > puts || puts-s.Puts >= flushChunk || s.Gets > gets || gets-s.Gets >= flushChunk {
			t.Fatalf("op %d: published %d puts, %d gets of %d, %d", i, s.Puts, s.Gets, puts, gets)
		}
	}
	for _, c := range []struct {
		name   string
		h      *Histogram
		ops    uint64
		probes uint64
	}{{"put", &m.putProbes, puts, 3}, {"get", &m.getProbes, gets, 2}, {"delete", &m.delProbes, dels, 1}} {
		hs := c.h.Snapshot()
		if want := c.ops / probeSampleEvery; hs.Count != want || hs.Sum != want*c.probes {
			t.Errorf("%s probes: %d samples summing to %d, want %d of %d", c.name, hs.Count, hs.Sum, want, c.probes)
		}
	}
}

// TestBatchedContainerOpsLayout pins the size the adapter's doc
// comment relies on: one 64-byte cache line.
func TestBatchedContainerOpsLayout(t *testing.T) {
	if size := unsafe.Sizeof(BatchedContainerOps{}); size != 64 {
		t.Fatalf("BatchedContainerOps is %d bytes, want 64", size)
	}
}

// TestConcurrentWriters is the race stress test: goroutines hammer a
// shared HashMetrics (each through its own wrapper, the documented
// ownership model), a shared ContainerMetrics, and a shared
// DriftMonitor while a reader snapshots everything. Run under -race.
func TestConcurrentWriters(t *testing.T) {
	m := NewHashMetrics("stress")
	cm := NewContainerMetrics("stress")
	var sawDegrade atomic.Bool
	d := NewDriftMonitor("stress", func(k string) bool { return len(k) == 3 },
		DriftConfig{Window: 64, MinSamples: 8, Threshold: 0.5,
			OnDegrade: func(DriftSnapshot) { sawDegrade.Store(true) }})
	reg := NewRegistry()
	reg.mu.Lock()
	reg.hashes = append(reg.hashes, m)
	reg.containers = append(reg.containers, cm)
	reg.drifts = append(reg.drifts, d)
	reg.mu.Unlock()

	const writers = 8
	const opsPerWriter = 4096
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn := Instrument(func(key string) uint64 { return uint64(len(key)) }, m, d)
			key := "abc"
			if w%2 == 1 {
				key = "toolong" // half the writers feed off-format keys
			}
			for i := 0; i < opsPerWriter; i++ {
				fn(key)
				cm.Put(key, i&7)
				cm.Get(key, i&3)
				cm.CollisionDelta(1)
				cm.CollisionDelta(-1)
				if i&255 == 0 {
					cm.Rehash(i & 15)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = reg.Snapshot()
			_ = d.Degraded()
			_ = d.MismatchRate()
		}
	}()
	wg.Wait()
	<-done

	if got := m.Calls(); got != writers*opsPerWriter {
		t.Fatalf("Calls = %d, want %d", got, writers*opsPerWriter)
	}
	s := cm.Snapshot()
	if s.Puts != writers*opsPerWriter || s.Gets != writers*opsPerWriter {
		t.Fatalf("container ops = %+v", s)
	}
	// Degraded() is recoverable — if the off-format writers happen to
	// finish first, the final window is all-conforming and the flag has
	// recovered by now. The one-shot OnDegrade event is the stable
	// assertion: the threshold was crossed at some point.
	if !sawDegrade.Load() {
		t.Fatal("half-mismatch stream above threshold did not degrade")
	}
}

func TestMergeContainerSnapshots(t *testing.T) {
	parts := []ContainerSnapshot{
		{Name: "t.shard0", Puts: 10, Gets: 100, Deletes: 1, Rehashes: 2, BucketCollisions: 5, ProbeP50: 1, ProbeP99: 4, ProbeMax: 9},
		{Name: "t.shard1", Puts: 20, Gets: 50, Deletes: 2, Rehashes: 1, BucketCollisions: 3, ProbeP50: 2, ProbeP99: 8, ProbeMax: 3},
		{Name: "t.shard2"},
	}
	got := MergeContainerSnapshots("t", parts)
	if got.Name != "t" {
		t.Errorf("Name = %q, want %q", got.Name, "t")
	}
	if got.Puts != 30 || got.Gets != 150 || got.Deletes != 3 || got.Rehashes != 3 || got.BucketCollisions != 8 {
		t.Errorf("additive fields wrong: %+v", got)
	}
	// Probe quantiles are worst-case measures: max across shards, never
	// averaged (the hot shard must stay visible).
	if got.ProbeP50 != 2 || got.ProbeP99 != 8 || got.ProbeMax != 9 {
		t.Errorf("probe quantiles %+v, want max-merge (2, 8, 9)", got)
	}
	empty := MergeContainerSnapshots("e", nil)
	if empty.Puts != 0 || empty.ProbeMax != 0 || empty.Name != "e" {
		t.Errorf("empty merge = %+v", empty)
	}
}

func TestNewContainerShards(t *testing.T) {
	r := NewRegistry()
	ms := r.NewContainerShards("tbl", 4)
	if len(ms) != 4 {
		t.Fatalf("got %d blocks, want 4", len(ms))
	}
	for i, m := range ms {
		if want := fmt.Sprintf("tbl.shard%d", i); m.Name() != want {
			t.Errorf("block %d named %q, want %q", i, m.Name(), want)
		}
	}
	ms[0].Put("k", 1)
	ms[3].Get("k", 2)
	snap := r.Snapshot()
	if len(snap.Containers) != 4 {
		t.Fatalf("snapshot has %d container blocks, want 4", len(snap.Containers))
	}
	merged := MergeContainerSnapshots("tbl", snap.Containers)
	if merged.Puts != 1 || merged.Gets != 1 {
		t.Errorf("merged ops %+v, want 1 put + 1 get", merged)
	}
}
