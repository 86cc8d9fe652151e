// Package telemetry is the runtime observability layer: lock-free
// counters and histograms for hash and container metrics, a format
// drift monitor, a flight recorder of lifecycle events and synthesis
// spans, and an HTTP handler exposing everything in Prometheus text
// and expvar-style JSON.
//
// The paper's evaluation measures B-Time, H-Time, B-Coll and T-Coll
// offline (Table 1); this package makes the same quantities visible in
// a running deployment, where the question behind RQ7 — are the keys
// still the keys the function was specialized to? — decides whether a
// specialized function is an optimization or a liability.
//
// Everything here is stdlib-only and allocation-free on the hot paths:
// counters and histogram buckets are atomics, and the instrumented
// hash wrapper batches its updates so the per-call cost stays a small
// fraction of even the fastest synthesized function.
package telemetry

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a lock-free monotonic counter.
type Counter struct{ n atomic.Uint64 }

// Add increments the counter by d.
//
//sepe:noalloc inline
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
//
//sepe:noalloc inline
func (c *Counter) Inc() { c.n.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.n.Load() }

// histBuckets is the number of power-of-two histogram buckets. Bucket
// i counts values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i);
// 48 buckets cover every duration up to ~39 hours in nanoseconds and
// every plausible chain length.
const histBuckets = 48

// Histogram is a fixed-bucket power-of-two histogram. Observe is
// lock-free and allocation-free; buckets are exponential, so quantile
// estimates are upper bounds with at most 2x resolution error —
// exactly enough to tell a 20 ns hash from a 200 ns one.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one value.
//
//sepe:noalloc inline
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	// Counts[i] holds the number of observations in [2^(i-1), 2^i).
	Counts []uint64 `json:"-"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum uint64 `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Counts: make([]uint64, histBuckets)}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]):
// the upper edge of the bucket containing the q-th observation, or 0
// when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count-1))
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if c > 0 && seen > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(len(s.Counts) - 1)
}

// Mean returns the exact mean of the observations (the sum is tracked
// exactly, not per bucket).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// MergeHistSnapshots sums histogram snapshots bucket-wise — exact for
// histograms with identical bucketing, which every Histogram in this
// package has. It builds the whole-container view from per-operation
// histograms without costing the hot path a second Observe.
func MergeHistSnapshots(parts ...HistSnapshot) HistSnapshot {
	out := HistSnapshot{Counts: make([]uint64, histBuckets)}
	for _, p := range parts {
		for i, c := range p.Counts {
			if i < len(out.Counts) {
				out.Counts[i] += c
			}
		}
		out.Count += p.Count
		out.Sum += p.Sum
	}
	return out
}

// bucketUpper returns the exclusive upper edge of bucket i.
func bucketUpper(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << i
}

// Wrapper batching parameters. The instrumented wrapper counts calls
// in a closure-local variable and flushes to the shared atomic counter
// every flushEvery calls, so the steady-state per-call cost is one
// non-atomic increment and a branch; timedEvery flushes include one
// timed call feeding the latency histogram (one clock read per
// flushEvery*timedEvery calls). The batch is sized so the amortized
// flush work (atomic adds, the drift sample's format check, the
// clock reads) stays well under a nanosecond per call even against
// the hardware-accelerated kernels, at the price of counters that
// trail the truth by at most flushEvery-1 calls per wrapper.
const (
	flushEvery = 256
	timedEvery = 8
)

// probeSampleEvery thins the per-op observation on the batched
// container path: one in probeSampleEvery operations of each kind —
// put, get and delete — feeds its chain depth into the histogram and
// the longest-probe exemplar (a uniform sample of a stationary probe
// distribution lands in the same power-of-two buckets, and a
// recurring deep chain is sampled with probability 1 over time).
const probeSampleEvery = 32

// flushSamples is how many sampled operations' worth of one kind a
// BatchedContainerOps counts locally before publishing them: a kind's
// shared counter moves once per flushChunk operations in steady state,
// and trails the truth by fewer than flushChunk.
const (
	flushSamples = 8
	flushChunk   = probeSampleEvery * flushSamples
)

// opCount counts one kind of operation for a BatchedContainerOps. n
// counts every operation since the adapter was made, so its residue
// picks the sampled ones and a flush never shifts the sampling phase
// (a container that deletes every few operations would otherwise
// never sample a put); flushed is the value of n at the last Flush.
// The operation that brings n to a multiple of flushChunk publishes
// the operations since the previous multiple or flush, whichever is
// later, and Flush publishes the rest.
type opCount struct{ n, flushed uint64 }

// flush publishes to c the operations no chunk has covered yet.
//
//sepe:noalloc
func (o *opCount) flush(c *Counter) {
	if d := o.n - max(o.flushed, o.n&^(flushChunk-1)); d != 0 {
		c.Add(d)
	}
	o.flushed = o.n
}

// BatchedContainerOps adapts a ContainerMetrics block for one table,
// trading read-side freshness for per-op cost: the common path is an
// increment and a branch, and all shared-atomic work (histograms, the
// exemplar, counter publishes) happens on one operation in
// probeSampleEvery. Put and get counts consequently trail the true
// totals by fewer than flushChunk operations each per adapter.
// Deletes, rehashes, clears and migrations flush pending counts, so a
// snapshot taken after any of them is exact for that table. B-Coll
// deltas apply at once: the running count backs the quality alarms.
//
// It is a container.Observer. Its owner is whatever serializes its
// table's writes: the goroutine that owns a single-owner container, or
// the write lock of one shard of a sharded container (every Put,
// Delete, Reserve, Clear, BeginMigration and MigrateStep holds it).
// Every method must run under that owner; a shard, whose lookups hold
// only its read lock, reports to a ShardContainerOps instead.
//
// The struct is 64 bytes, a size class whose objects are 64-byte
// aligned, so an operation dirties one cache line of its adapter:
// that line is what the cores sharing a shard hand back and forth.
type BatchedContainerOps struct {
	puts, gets, dels opCount
	// sharedGets counts a ShardContainerOps' lookups; Flush, which no
	// lookup overlaps, copies it into gets.n.
	sharedGets atomic.Uint64
	m          *ContainerMetrics
}

// NewBatchedContainerOps returns a batching adapter over m.
func NewBatchedContainerOps(m *ContainerMetrics) *BatchedContainerOps {
	return &BatchedContainerOps{m: m}
}

// ShardContainerOps is the BatchedContainerOps of one shard, whose
// lookups run concurrently under its read lock. It embeds the adapter
// by value and overrides only Get, so it stays one cache line and its
// other methods are the adapter's own, reached by a tail jump.
type ShardContainerOps struct{ BatchedContainerOps }

// NewShardContainerOps returns a shard's batching adapter over m,
// built in place: the adapter holds an atomic and must not be copied.
func NewShardContainerOps(m *ContainerMetrics) *ShardContainerOps {
	s := new(ShardContainerOps)
	s.m = m
	return s
}

// Get records a lookup under the shard's read lock with one atomic
// add. Each value it returns reaches one call, which samples and
// publishes off it, so each chunk is published once.
//
//sepe:noalloc
func (s *ShardContainerOps) Get(key string, probes int) {
	if n := s.sharedGets.Add(1); n%probeSampleEvery == 0 {
		s.sample(&s.gets, n, key, probes)
	}
}

// Put records one insert of key that examined probes chain entries
// and changed the bucket-collision count by collDelta.
//
//sepe:noalloc
func (b *BatchedContainerOps) Put(key string, probes, collDelta int) {
	b.puts.n++
	if b.puts.n%probeSampleEvery == 0 {
		b.sample(&b.puts, b.puts.n, key, probes)
	}
	if collDelta != 0 {
		b.m.CollisionDelta(collDelta)
	}
}

// Get records one lookup of key that examined probes chain entries,
// made by the adapter's owner.
//
//sepe:noalloc
func (b *BatchedContainerOps) Get(key string, probes int) {
	b.gets.n++
	if b.gets.n%probeSampleEvery == 0 {
		b.sample(&b.gets, b.gets.n, key, probes)
	}
}

// Delete records one erase of key that examined probes chain entries
// and changed the bucket-collision count by collDelta, then flushes.
//
//sepe:noalloc
func (b *BatchedContainerOps) Delete(key string, probes, collDelta int) {
	b.dels.n++
	if b.dels.n%probeSampleEvery == 0 {
		b.sample(&b.dels, b.dels.n, key, probes)
	}
	b.Flush()
	if collDelta != 0 {
		b.m.CollisionDelta(collDelta)
	}
}

// The structural events flush pending counts, then record the event
// in the metrics block.

//sepe:noalloc
func (b *BatchedContainerOps) Rehash(bucketCollisions int) {
	b.Flush()
	b.m.Rehash(bucketCollisions)
}

//sepe:noalloc
func (b *BatchedContainerOps) Clear() {
	b.Flush()
	b.m.Reset()
}

//sepe:noalloc
func (b *BatchedContainerOps) MigrateStart(retired, fresh int) {
	b.Flush()
	b.m.MigrateStart(retired, fresh)
}

//sepe:noalloc
func (b *BatchedContainerOps) MigrateDone(buckets int) {
	b.Flush()
	b.m.MigrateDone(buckets)
}

// sample feeds the n-th operation of the kind o counts, a sampled
// one, to the kind's histogram and the exemplar, and publishes its
// chunk when n ends one. It only reads o, so concurrent lookups may
// share it.
//
//sepe:noalloc
func (b *BatchedContainerOps) sample(o *opCount, n uint64, key string, probes int) {
	c, h := &b.m.deletes, &b.m.delProbes
	switch o {
	case &b.puts:
		c, h = &b.m.puts, &b.m.putProbes
	case &b.gets:
		c, h = &b.m.gets, &b.m.getProbes
	}
	h.Observe(uint64(probes))
	b.m.longest.offerNow(key, uint64(probes))
	if n%flushChunk == 0 {
		c.Add(n - max(o.flushed, n-flushChunk))
	}
}

// Flush publishes the locally accumulated operation counts to the
// shared metrics block. It must run under the adapter's owner, with
// no lookup in flight.
//
//sepe:noalloc
func (b *BatchedContainerOps) Flush() {
	if s := b.sharedGets.Load(); s > b.gets.n {
		b.gets.n = s
	}
	b.puts.flush(&b.m.puts)
	b.gets.flush(&b.m.gets)
	b.dels.flush(&b.m.deletes)
}

// HashMetrics aggregates the runtime behaviour of one hash function:
// total calls, a sampled latency histogram with p50/p99/p999
// snapshots, the slowest-key exemplar, and any certifier
// counterexample keys attached to the metric. All hot-path fields are
// atomic; any number of wrappers (one per goroutine) may feed the
// same HashMetrics concurrently.
type HashMetrics struct {
	name            string
	calls           Counter
	latency         Histogram
	slowest         maxExemplar
	counterexamples keySet
	// rec is the registry's flight recorder (nil for free-standing
	// blocks); counterexample attachments are recorded there with
	// sensitive attributes so trace exports redact them.
	rec *Recorder
}

// NewHashMetrics returns an empty metrics block named name.
func NewHashMetrics(name string) *HashMetrics { return &HashMetrics{name: name} }

// Name returns the metrics block's name.
func (m *HashMetrics) Name() string { return m.name }

// ObserveLatency records one timed call: ns into the latency
// histogram and, when it sets a new maximum, key as the slowest-key
// exemplar. at is the observation time in Unix seconds (callers that
// already read the clock pass it along instead of reading it again).
//
//sepe:noalloc
func (m *HashMetrics) ObserveLatency(key string, ns uint64, at int64) {
	m.latency.Observe(ns)
	m.slowest.offer(key, ns, at)
}

// SetCounterexamples attaches certifier counterexample keys to the
// metric block (capped at 8): two distinct in-format keys the
// certifier proved collide. Exported snapshots carry them as
// exemplars next to the latency quantiles, so an operator staring at
// a collision alarm has the reproducing keys in hand.
func (m *HashMetrics) SetCounterexamples(keys ...string) {
	m.counterexamples.add(keys...)
	// Mirror the attachment into the flight recorder. The keys are
	// user data: marked sensitive, they pass through the registry's
	// redactor on every JSON-lines or Chrome-trace export, exactly
	// like the SLO exemplars pass through it in snapshots.
	attrs := []Attr{Str("hash", m.name), Int("count", len(keys))}
	for i, k := range keys {
		if i >= 2 {
			break // a colliding pair identifies the reproducer
		}
		attrs = append(attrs, Sensitive(fmt.Sprintf("key%d", i+1), k))
	}
	m.rec.Instant("hash", "hash.counterexample", attrs...)
}

// Instrument wraps fn so that calls and sampled latencies feed m, and
// d checks one key per flush of flushEvery calls for format drift
// (every key when m is nil). Either m or d may be nil; with both nil
// fn is returned unchanged.
//
// The returned wrapper batches its counter updates locally (flushing
// every flushEvery = 256 calls), so each wrapper value must stay confined to one
// goroutine — the same ownership discipline the containers themselves
// require. Wrap once per goroutine; all wrappers share m and d safely.
//
//sepe:noalloc closures
func Instrument(fn func(string) uint64, m *HashMetrics, d *DriftMonitor) func(string) uint64 {
	if m == nil && d == nil {
		return fn
	}
	if m == nil {
		return func(key string) uint64 {
			d.Observe(key)
			return fn(key)
		}
	}
	var local uint32
	return func(key string) uint64 {
		local++
		if local%flushEvery != 0 {
			return fn(key)
		}
		m.calls.Add(flushEvery)
		if d != nil {
			d.observe(key, flushEvery)
		}
		if (local/flushEvery)%timedEvery != 0 {
			return fn(key)
		}
		start := time.Now()
		h := fn(key)
		m.ObserveLatency(key, uint64(time.Since(start)), start.Unix())
		return h
	}
}

// HashSnapshot is a point-in-time copy of one hash's metrics.
type HashSnapshot struct {
	Name string `json:"name"`
	// Calls is the number of hash invocations (batched: trails the
	// true count by at most 255 per live wrapper).
	Calls uint64 `json:"calls"`
	// Sampled is the number of latency samples behind the quantiles.
	Sampled uint64 `json:"sampled"`
	// P50/P90/P99/P999/Max are sampled latency quantile upper bounds,
	// ns — the SLO view of the hash.
	P50  uint64 `json:"p50_ns"`
	P90  uint64 `json:"p90_ns"`
	P99  uint64 `json:"p99_ns"`
	P999 uint64 `json:"p999_ns"`
	Max  uint64 `json:"max_ns"`
	// MeanNs is the exact mean of the sampled latencies.
	MeanNs float64 `json:"mean_ns"`
	// Slowest is the slowest sampled key, when one has been timed.
	Slowest *Exemplar `json:"slowest,omitempty"`
	// Counterexamples carries certifier counterexample keys attached
	// with SetCounterexamples.
	Counterexamples []string `json:"counterexamples,omitempty"`
}

// Snapshot copies the metrics' current state.
func (m *HashMetrics) Snapshot() HashSnapshot {
	lat := m.latency.Snapshot()
	s := HashSnapshot{
		Name:            m.name,
		Calls:           m.calls.Load(),
		Sampled:         lat.Count,
		P50:             lat.Quantile(0.50),
		P90:             lat.Quantile(0.90),
		P99:             lat.Quantile(0.99),
		P999:            lat.Quantile(0.999),
		Max:             lat.Quantile(1),
		MeanNs:          lat.Mean(),
		Counterexamples: m.counterexamples.snapshot(),
	}
	if ex, ok := m.slowest.load(); ok {
		s.Slowest = &ex
	}
	return s
}

// Calls returns the flushed call count.
func (m *HashMetrics) Calls() uint64 { return m.calls.Load() }

// ContainerMetrics aggregates the runtime behaviour of one container:
// operation counts, per-operation probe (chain-length) histograms,
// the longest-probe key exemplar, rehash and migration counts, and
// the running bucket-collision count — the paper's B-Coll, maintained
// incrementally instead of recounted offline.
type ContainerMetrics struct {
	name       string
	puts       Counter
	gets       Counter
	deletes    Counter
	rehashes   Counter
	migrations Counter
	// bcoll shares the op counters' cache line, so a delete's count
	// and its collision delta dirty one line.
	bcoll     atomic.Int64
	putProbes Histogram
	getProbes Histogram
	delProbes Histogram
	longest   maxExemplar
	migrating atomic.Bool

	// rec receives container lifecycle events (migration start/done)
	// when the block was created through a registry; nil otherwise.
	rec *Recorder
}

// NewContainerMetrics returns an empty metrics block named name.
func NewContainerMetrics(name string) *ContainerMetrics {
	return &ContainerMetrics{name: name}
}

// Name returns the metrics block's name.
func (m *ContainerMetrics) Name() string { return m.name }

// Put records one insert of key that examined probes chain entries.
func (m *ContainerMetrics) Put(key string, probes int) {
	m.puts.Inc()
	m.putProbes.Observe(uint64(probes))
	m.longest.offerNow(key, uint64(probes))
}

// Get records one lookup of key that examined probes chain entries.
func (m *ContainerMetrics) Get(key string, probes int) {
	m.gets.Inc()
	m.getProbes.Observe(uint64(probes))
	m.longest.offerNow(key, uint64(probes))
}

// Delete records one erase of key that examined probes chain entries.
func (m *ContainerMetrics) Delete(key string, probes int) {
	m.deletes.Inc()
	m.delProbes.Observe(uint64(probes))
	m.longest.offerNow(key, uint64(probes))
}

// Rehash records a rehash and resets the running collision count to
// the exact recount taken after rebucketing.
func (m *ContainerMetrics) Rehash(bucketCollisions int) {
	m.rehashes.Inc()
	m.bcoll.Store(int64(bucketCollisions))
}

// MigrateStart records the beginning of an incremental migration:
// retired buckets to drain into a fresh region.
func (m *ContainerMetrics) MigrateStart(retired, fresh int) {
	m.migrations.Inc()
	m.migrating.Store(true)
	m.rec.Instant("container", "container.migrate.start",
		Str("container", m.name), Int("retired", retired), Int("fresh", fresh))
}

// MigrateDone records the completion of an incremental migration.
// The longest-probe exemplar resets: probe lengths under the retired
// hash do not describe the new bucketing.
func (m *ContainerMetrics) MigrateDone(buckets int) {
	m.migrating.Store(false)
	m.longest.reset()
	m.rec.Instant("container", "container.migrate.done",
		Str("container", m.name), Int("buckets", buckets))
}

// CollisionDelta adjusts the running bucket-collision count.
func (m *ContainerMetrics) CollisionDelta(d int) { m.bcoll.Add(int64(d)) }

// Reset clears the running collision count, the longest-probe
// exemplar and the migrating flag (container Clear, which drops any
// in-flight migration with the entries).
func (m *ContainerMetrics) Reset() {
	m.bcoll.Store(0)
	m.longest.reset()
	m.migrating.Store(false)
}

// BucketCollisions returns the running B-Coll value.
func (m *ContainerMetrics) BucketCollisions() int64 { return m.bcoll.Load() }

// OpProbes is the per-operation probe-length quantile block.
type OpProbes struct {
	// P50/P99/Max are chain-length quantile upper bounds for this
	// operation kind.
	P50 uint64 `json:"p50"`
	P99 uint64 `json:"p99"`
	Max uint64 `json:"max"`
}

func opProbes(s HistSnapshot) OpProbes {
	return OpProbes{P50: s.Quantile(0.50), P99: s.Quantile(0.99), Max: s.Quantile(1)}
}

// maxOpProbes merges per-shard per-op quantiles: worst case wins
// (see MergeContainerSnapshots).
func maxOpProbes(a, b OpProbes) OpProbes {
	if b.P50 > a.P50 {
		a.P50 = b.P50
	}
	if b.P99 > a.P99 {
		a.P99 = b.P99
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	return a
}

// ContainerSnapshot is a point-in-time copy of container metrics.
type ContainerSnapshot struct {
	Name string `json:"name"`
	// Puts, Gets and Deletes count operations (the
	// sepe_container_ops_total series). Fed through a
	// BatchedContainerOps, Puts and Gets each trail the truth by fewer
	// than probeSampleEvery×flushSamples (256) per block — per shard,
	// for a sharded container — and are exact after a delete or a
	// structural event on that table.
	Puts     uint64 `json:"puts"`
	Gets     uint64 `json:"gets"`
	Deletes  uint64 `json:"deletes"`
	Rehashes uint64 `json:"rehashes"`
	// Migrations counts incremental hash migrations started;
	// Migrating reports one in progress.
	Migrations uint64 `json:"migrations"`
	Migrating  bool   `json:"migrating"`
	// BucketCollisions is the running B-Coll count.
	BucketCollisions int64 `json:"bucket_collisions"`
	// ProbeP50/P99/Max are chain-length quantile upper bounds over
	// all operations.
	ProbeP50 uint64 `json:"probe_p50"`
	ProbeP99 uint64 `json:"probe_p99"`
	ProbeMax uint64 `json:"probe_max"`
	// PutProbes/GetProbes/DeleteProbes break the quantiles down per
	// operation kind.
	PutProbes    OpProbes `json:"put_probes"`
	GetProbes    OpProbes `json:"get_probes"`
	DeleteProbes OpProbes `json:"delete_probes"`
	// LongestProbe is the key behind the longest observed chain walk.
	LongestProbe *Exemplar `json:"longest_probe,omitempty"`
}

// MergeContainerSnapshots folds per-shard snapshots into one block
// for a sharded container. Operation counts, rehashes and the running
// bucket-collision total are additive across disjoint shards. The
// probe quantiles take the MAXIMUM across shards: ProbeMax is a
// worst-case bound and P50/P99 are reported as conservative upper
// bounds — averaging them would advertise a probe distribution no
// shard actually has (a single hot shard must stay visible).
func MergeContainerSnapshots(name string, parts []ContainerSnapshot) ContainerSnapshot {
	out := ContainerSnapshot{Name: name}
	for _, p := range parts {
		out.Puts += p.Puts
		out.Gets += p.Gets
		out.Deletes += p.Deletes
		out.Rehashes += p.Rehashes
		out.Migrations += p.Migrations
		out.Migrating = out.Migrating || p.Migrating
		out.BucketCollisions += p.BucketCollisions
		if p.ProbeP50 > out.ProbeP50 {
			out.ProbeP50 = p.ProbeP50
		}
		if p.ProbeP99 > out.ProbeP99 {
			out.ProbeP99 = p.ProbeP99
		}
		if p.ProbeMax > out.ProbeMax {
			out.ProbeMax = p.ProbeMax
		}
		out.PutProbes = maxOpProbes(out.PutProbes, p.PutProbes)
		out.GetProbes = maxOpProbes(out.GetProbes, p.GetProbes)
		out.DeleteProbes = maxOpProbes(out.DeleteProbes, p.DeleteProbes)
		if p.LongestProbe != nil &&
			(out.LongestProbe == nil || p.LongestProbe.Value > out.LongestProbe.Value) {
			ex := *p.LongestProbe
			out.LongestProbe = &ex
		}
	}
	return out
}

// Snapshot copies the metrics' current state. The whole-container
// probe quantiles come from the bucket-wise sum of the per-operation
// histograms, so they are exactly what a single merged histogram
// would report.
func (m *ContainerMetrics) Snapshot() ContainerSnapshot {
	put := m.putProbes.Snapshot()
	get := m.getProbes.Snapshot()
	del := m.delProbes.Snapshot()
	all := MergeHistSnapshots(put, get, del)
	s := ContainerSnapshot{
		Name:             m.name,
		Puts:             m.puts.Load(),
		Gets:             m.gets.Load(),
		Deletes:          m.deletes.Load(),
		Rehashes:         m.rehashes.Load(),
		Migrations:       m.migrations.Load(),
		Migrating:        m.migrating.Load(),
		BucketCollisions: m.bcoll.Load(),
		ProbeP50:         all.Quantile(0.50),
		ProbeP99:         all.Quantile(0.99),
		ProbeMax:         all.Quantile(1),
		PutProbes:        opProbes(put),
		GetProbes:        opProbes(get),
		DeleteProbes:     opProbes(del),
	}
	if ex, ok := m.longest.load(); ok {
		s.LongestProbe = &ex
	}
	return s
}
