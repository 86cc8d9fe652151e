package sepe_test

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/sepe-go/sepe"
)

func ssnFormat(t *testing.T) *sepe.Format {
	t.Helper()
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInstrumentPreservesHashValues(t *testing.T) {
	f := ssnFormat(t)
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	raw := h.Func()
	m := sepe.NewMetricsRegistry().NewHash("pext")
	wrapped := sepe.Instrument(raw, m, nil)
	for i, key := range f.Samples(1000, 7) {
		if wrapped(key) != raw(key) {
			t.Fatalf("key %d: instrumented hash diverged", i)
		}
	}
}

func TestObservedMapMetricsMatchStats(t *testing.T) {
	f := ssnFormat(t)
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	reg := sepe.NewMetricsRegistry()
	m := sepe.NewMap[int](h.Func(), sepe.Observed(reg, "ssnmap"))
	keys := f.Samples(5000, 3)
	for i, k := range keys {
		m.Put(k, i)
	}
	for _, k := range keys[:100] {
		m.Get(k)
	}
	m.Delete(keys[0])

	snap := containerSnapshot(t, reg, "ssnmap")
	if snap.Puts != 5000 || snap.Gets != 100 || snap.Deletes != 1 {
		t.Fatalf("op counts: %+v", snap)
	}
	if snap.Rehashes == 0 {
		t.Fatal("5000 inserts did not rehash")
	}
	// The incrementally-maintained B-Coll must agree with the
	// authoritative offline recount.
	if got, want := snap.BucketCollisions, int64(m.Stats().BucketCollisions); got != want {
		t.Fatalf("running B-Coll = %d, Stats recount = %d", got, want)
	}
}

func TestObservedContainerKinds(t *testing.T) {
	reg := sepe.NewMetricsRegistry()

	// Each block ends with a structural op (Clear/Delete), which
	// flushes the batched per-op counters before the snapshot below.
	s := sepe.NewSet(sepe.STLHash, sepe.Observed(reg, "set"))
	s.Add("a")
	s.Has("a")
	s.Clear()

	mm := sepe.NewMultiMap[int](sepe.STLHash, sepe.Observed(reg, "mmap"))
	mm.Put("k", 1)
	mm.Put("k", 2)
	mm.GetAll("k")
	mm.Clear()

	ms := sepe.NewMultiSet(sepe.STLHash, sepe.Observed(reg, "mset"))
	ms.Add("x")
	ms.Add("x")
	ms.Clear()

	snap := reg.Snapshot()
	if len(snap.Containers) != 3 {
		t.Fatalf("containers registered: %d", len(snap.Containers))
	}
	for _, c := range snap.Containers {
		if c.Puts == 0 {
			t.Fatalf("container %s recorded no puts", c.Name)
		}
	}
}

// shardedObserved is the part of a sharded observed container's API
// TestShardedObservedMetrics drives, so maps and sets share one body.
type shardedObserved struct {
	put    func(key string)
	get    func(key string) bool
	del    func(key string) int
	stats  func() sepe.TableStats
	shards func() []sepe.TableStats
}

// TestShardedObservedMetrics drives sharded observed containers from
// two goroutines: disjoint puts, then gets of the shared key set, then
// one delete per shard from each goroutine. Each shard's delete
// flushes that shard's pending counts, so the merged counts must be
// exact, and the running B-Coll must match the offline recount.
func TestShardedObservedMetrics(t *testing.T) {
	const (
		workers   = 2
		shards    = 8
		perWorker = 2000
	)
	// The routing hash's top log2(shards) bits pick a key's shard.
	shardOf := func(key string) int { return int(sepe.STLHash(key) >> (64 - 3)) }
	keys := make([][]string, workers)
	for w := range keys {
		for i := 0; i < perWorker; i++ {
			keys[w] = append(keys[w], fmt.Sprintf("w%d-key-%05d", w, i))
		}
	}
	// Each worker deletes its first key in every shard; the shared
	// lookups skip those keys, since they may run after the delete.
	doomed := make([][]string, workers)
	var shared []string
	perShard := make([]int, shards)
	for w := range keys {
		seen := make([]bool, shards)
		for _, k := range keys[w] {
			sh := shardOf(k)
			perShard[sh]++
			if !seen[sh] {
				seen[sh] = true
				doomed[w] = append(doomed[w], k)
			} else {
				shared = append(shared, k)
			}
		}
		if len(doomed[w]) != shards {
			t.Fatalf("worker %d owns keys in %d of %d shards", w, len(doomed[w]), shards)
		}
	}

	reg := sepe.NewMetricsRegistry()
	m := sepe.NewMap[int](sepe.STLHash, sepe.Sharded(shards), sepe.Observed(reg, "map"))
	s := sepe.NewSet(sepe.STLHash, sepe.Sharded(shards), sepe.Observed(reg, "set"))
	for name, c := range map[string]shardedObserved{
		"map": {
			put:    func(k string) { m.Put(k, len(k)) },
			get:    func(k string) bool { v, ok := m.Get(k); return ok && v == len(k) },
			del:    m.Delete,
			stats:  m.Stats,
			shards: m.ShardStats,
		},
		"set": {
			put:    func(k string) { s.Add(k) },
			get:    s.Has,
			del:    s.Delete,
			stats:  s.Stats,
			shards: s.ShardStats,
		},
	} {
		t.Run(name, func(t *testing.T) {
			run := func(f func(w int)) {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						f(w)
					}(w)
				}
				wg.Wait()
			}
			run(func(w int) {
				for _, k := range keys[w] {
					c.put(k)
				}
			})
			for i, st := range c.shards() {
				if st.Size != perShard[i] {
					t.Fatalf("shard %d holds %d keys, routing predicts %d", i, st.Size, perShard[i])
				}
			}
			run(func(w int) {
				for _, k := range shared {
					if !c.get(k) {
						t.Errorf("worker %d: %q not found", w, k)
						return
					}
				}
				for _, k := range doomed[w] {
					if n := c.del(k); n != 1 {
						t.Errorf("worker %d: delete %q removed %d", w, k, n)
					}
				}
			})

			var parts []sepe.ContainerSnapshot
			for _, cs := range reg.Snapshot().Containers {
				if strings.HasPrefix(cs.Name, name+".shard") {
					parts = append(parts, cs)
				}
			}
			if len(parts) != shards {
				t.Fatalf("%d per-shard blocks, want %d", len(parts), shards)
			}
			got := sepe.MergeContainerSnapshots(name, parts)
			wantGets := uint64(workers * len(shared))
			if got.Puts != workers*perWorker || got.Gets != wantGets || got.Deletes != workers*shards {
				t.Fatalf("merged counts puts=%d gets=%d deletes=%d, want %d %d %d",
					got.Puts, got.Gets, got.Deletes, workers*perWorker, wantGets, workers*shards)
			}
			if want := int64(c.stats().BucketCollisions); got.BucketCollisions != want {
				t.Fatalf("running B-Coll = %d, Stats recount = %d", got.BucketCollisions, want)
			}
			if got.PutProbes.Max == 0 || got.GetProbes.Max == 0 || got.LongestProbe == nil {
				t.Fatalf("probe histograms or exemplar empty: put %+v get %+v longest %v",
					got.PutProbes, got.GetProbes, got.LongestProbe)
			}
		})
	}
}

// TestObservedNilMetrics pins Observed's nil registry: it selects the
// default registry, where the container's block then appears.
func TestObservedNilMetrics(t *testing.T) {
	const name = "observed-nil-registry-test"
	m := sepe.NewMap[int](sepe.STLHash, sepe.Observed(nil, name))
	m.Put("a", 1)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatal("default-registry observed map misbehaves")
	}
	m.Delete("a")
	if snap := containerSnapshot(t, sepe.Metrics(), name); snap.Puts != 1 || snap.Gets != 1 || snap.Deletes != 1 {
		t.Fatalf("default-registry block counts: %+v", snap)
	}
}

// containerSnapshot returns the snapshot of reg's container block
// named name.
func containerSnapshot(t *testing.T, reg *sepe.MetricsRegistry, name string) sepe.ContainerSnapshot {
	t.Helper()
	for _, cs := range reg.Snapshot().Containers {
		if cs.Name == name {
			return cs
		}
	}
	t.Fatalf("no container block named %q", name)
	return sepe.ContainerSnapshot{}
}

func TestFormatDriftMonitorEndToEnd(t *testing.T) {
	f := ssnFormat(t)
	degraded := 0
	d := f.DriftMonitor("ssn", sepe.DriftConfig{
		SampleEvery: 1,
		OnDegrade:   func(sepe.DriftSnapshot) { degraded++ },
	})
	// A conforming stream keeps the monitor healthy. Samples are drawn
	// from the quad-widened format, which Matches accepts by
	// construction.
	for _, k := range f.Samples(2000, 11) {
		d.Observe(k)
	}
	if d.Degraded() {
		t.Fatal("conforming stream degraded the monitor")
	}
	// 20% off-format keys must flip Degraded.
	for i := 0; i < 2000; i++ {
		if i%5 == 0 {
			d.Observe(fmt.Sprintf("user-%d@example.com", i))
		} else {
			d.Observe(fmt.Sprintf("%03d-%02d-%04d", i%1000, i%100, i%10000))
		}
	}
	if !d.Degraded() {
		t.Fatal("20% off-format stream did not degrade")
	}
	if degraded != 1 {
		t.Fatalf("OnDegrade fired %d times", degraded)
	}
}

func TestWithTracerEmitsSynthesisSpans(t *testing.T) {
	f := ssnFormat(t)
	tr := &sepe.CollectTracer{}
	if _, err := sepe.Synthesize(f, sepe.Pext, sepe.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tr.Spans() {
		names[s.Name] = true
	}
	for _, want := range []string{"plan.pattern", "plan.pext", "synth.plan", "synth.verify", "synth.compile"} {
		if !names[want] {
			t.Errorf("missing span %q (got %v)", want, names)
		}
	}
	report := tr.Report()
	if !strings.Contains(report, "family=Pext") || !strings.Contains(report, "bijective=true") {
		t.Errorf("report missing attributes:\n%s", report)
	}
}

func TestMetricsHandlerServesDefaultRegistry(t *testing.T) {
	// The default registry is process-global; use a unique name so the
	// assertion is specific to this test.
	m := sepe.Metrics().NewHash("handler-test-hash")
	fn := sepe.Instrument(sepe.STLHash, m, nil)
	for i := 0; i < 1024; i++ {
		fn("some-key")
	}
	rw := httptest.NewRecorder()
	sepe.MetricsHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rw.Body.String(), `sepe_hash_calls_total{hash="handler-test-hash"} 1024`) {
		t.Fatalf("metrics endpoint missing instrumented hash:\n%s", rw.Body.String())
	}
}
