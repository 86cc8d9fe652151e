package sepe

import (
	"net/http"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// This file exposes the runtime telemetry layer: instrumented hash
// wrappers, observed containers, the format-drift monitor, synthesis
// tracing, and the metrics registry/HTTP endpoint. The paper measures
// B-Time/H-Time/B-Coll/T-Coll offline (Table 1); these types surface
// the same quantities — plus the RQ7 question the offline harness
// cannot answer: are production keys still the format the function was
// specialized to?

// Tracer receives timed span events from the synthesis pipeline; pass
// one with WithTracer. CollectTracer accumulates spans in memory,
// WriterTracer streams them to an io.Writer.
type (
	Tracer        = telemetry.Tracer
	Span          = telemetry.Span
	SpanAttr      = telemetry.Attr
	CollectTracer = telemetry.CollectTracer
	WriterTracer  = telemetry.WriterTracer
)

// Metric blocks and the registry that aggregates them.
type (
	HashMetrics       = telemetry.HashMetrics
	ContainerMetrics  = telemetry.ContainerMetrics
	DriftMonitor      = telemetry.DriftMonitor
	DriftConfig       = telemetry.DriftConfig
	DriftSnapshot     = telemetry.DriftSnapshot
	AdaptiveMetrics   = telemetry.AdaptiveMetrics
	AdaptiveSnapshot  = telemetry.AdaptiveSnapshot
	MetricsRegistry   = telemetry.Registry
	MetricsSnapshot   = telemetry.RegistrySnapshot
	HashSnapshot      = telemetry.HashSnapshot
	ContainerSnapshot = telemetry.ContainerSnapshot
)

// The observability plane: the flight recorder behind TraceHandler,
// its event type, the exemplars attached to latency/probe metrics,
// and the aggregated health model behind HealthHandler.
type (
	FlightRecorder  = telemetry.Recorder
	TraceEvent      = telemetry.Event
	Exemplar        = telemetry.Exemplar
	HealthReport    = telemetry.HealthReport
	ComponentHealth = telemetry.ComponentHealth
	HealthClass     = telemetry.HealthClass
)

// Health classes an adaptive state maps onto (AdaptiveMetrics.SetState).
const (
	HealthReady    = telemetry.HealthReady
	HealthNotReady = telemetry.HealthNotReady
	HealthFailed   = telemetry.HealthFailed
)

// Metrics returns the process-wide default registry. Its Handler
// method serves every registered metric as Prometheus text (or
// expvar-style JSON with ?format=json); its NewHash / NewContainer /
// NewDrift constructors create and register metric blocks.
func Metrics() *MetricsRegistry { return telemetry.Default }

// NewMetricsRegistry returns an empty, independent registry, for
// programs that scope metrics per subsystem or test.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// MetricsHandler serves the default registry over HTTP:
//
//	http.Handle("/metrics", sepe.MetricsHandler())
func MetricsHandler() http.Handler { return telemetry.Default.Handler() }

// TraceHandler serves the default registry's flight recorder: the
// most recent synthesis spans, adaptive state transitions, drift
// alarms and container migrations, as JSON lines by default or the
// Chrome trace-event format with ?format=chrome (load the download in
// chrome://tracing or Perfetto):
//
//	http.Handle("/debug/trace", sepe.TraceHandler())
func TraceHandler() http.Handler { return telemetry.Default.Recorder().Handler() }

// HealthHandler serves the default registry's readiness/liveness
// model, aggregated over every registered adaptive hash and drift
// monitor. Mount it once; the path (or ?probe=live) selects the
// verdict:
//
//	http.Handle("/healthz", sepe.HealthHandler()) // ready: 503 while any component is degraded
//	http.Handle("/livez", sepe.HealthHandler())   // live: 503 only when a component is pinned
func HealthHandler() http.Handler { return telemetry.Default.HealthHandler() }

// Health returns the default registry's current health report.
func Health() HealthReport { return telemetry.Default.Health() }

// FlightRecorderOf returns the default registry's flight recorder —
// also a Tracer, so synthesis spans can be captured into it:
//
//	sepe.WithTracer(sepe.FlightRecorderOf())
func FlightRecorderOf() *FlightRecorder { return telemetry.Default.Recorder() }

// RegisterRuntimeMetrics bridges a curated set of runtime/metrics
// samples (heap bytes, goroutine count, GC cycles) into the default
// registry as gauges, giving the metrics surfaces process context
// next to the hash metrics.
func RegisterRuntimeMetrics() { telemetry.RegisterRuntimeMetrics(telemetry.Default) }

// Instrument wraps hash so every call is counted and a sampled subset
// is timed into m, and (when d is non-nil) observed keys are checked
// for format drift. Either observer may be nil; with both nil the
// hash is returned unchanged, so a disabled-telemetry build pays
// nothing.
//
// The wrapper batches its counter updates locally and flushes them to
// m's atomics every 64 calls, keeping the per-call overhead a small
// fraction of even a Pext hash. Consequently each wrapper value must
// stay confined to one goroutine — the ownership discipline the
// containers already require. Wrap once per goroutine (or per
// container); all wrappers feed the same m and d safely.
func Instrument(hash HashFunc, m *HashMetrics, d *DriftMonitor) HashFunc {
	return telemetry.Instrument(hash, m, d)
}

// DriftMonitor returns a monitor watching observed keys for drift out
// of the format — the runtime safeguard for the paper's RQ7 failure
// mode. A specialized hash applied to off-format keys degenerates to
// near-zero mixing, so the monitor samples keys, checks them against
// Format.Matches, and raises Degraded (and the one-shot
// cfg.OnDegrade callback) when the windowed mismatch rate crosses the
// threshold; the recommended response is swapping the container's
// hash for a general-purpose fallback such as STLHash. The zero
// DriftConfig selects sane defaults (sample 1/8, window 256,
// threshold 10%).
//
// The monitor is registered in the default registry, so MetricsHandler
// exposes its sepe_drift_* series; use MetricsRegistry.NewDrift with
// f.Matches for an independently scoped monitor.
func (f *Format) DriftMonitor(name string, cfg DriftConfig) *DriftMonitor {
	return telemetry.Default.NewDrift(name, f.Matches, cfg)
}

// containerHooks adapts cm to the container hook interface through
// one BatchedContainerOps, whose owner is whatever serializes the
// table's writes: the owning goroutine of a single-owner container,
// or the write lock of one shard of a sharded container.
// concurrentGets marks the shard case, where lookups run concurrently
// under the shard's read lock and so record through ConcurrentGet.
// B-Coll deltas stay immediate: the running collision count backs the
// quality alarms and must not trail the table.
func containerHooks(cm *ContainerMetrics, concurrentGets bool) *container.Hooks {
	if cm == nil {
		return nil
	}
	b := telemetry.NewBatchedContainerOps(cm)
	onGet := func(key string, probes int, _ bool) { b.Get(key, probes) }
	if concurrentGets {
		onGet = func(key string, probes int, _ bool) { b.ConcurrentGet(key, probes) }
	}
	return &container.Hooks{
		OnPut: func(key string, probes, delta int) {
			b.Put(key, probes)
			if delta != 0 {
				cm.CollisionDelta(delta)
			}
		},
		OnGet: onGet,
		OnDelete: func(key string, probes, _, delta int) {
			b.Delete(key, probes)
			if delta != 0 {
				cm.CollisionDelta(delta)
			}
		},
		OnRehash: func(_, bcoll int) {
			b.Flush()
			cm.Rehash(bcoll)
		},
		OnClear: func() {
			b.Flush()
			cm.Reset()
		},
		OnMigrateStart: func(retired, fresh int) {
			b.Flush()
			cm.MigrateStart(retired, fresh)
		},
		OnMigrateDone: func(buckets int) {
			b.Flush()
			cm.MigrateDone(buckets)
		},
	}
}

// MergeContainerSnapshots folds the per-shard snapshots of a sharded
// container into one whole-container block named name: operation and
// collision counts are summed, probe quantiles take the maximum
// across shards (worst-case measures are not averageable — a single
// hot shard must stay visible in the merged view).
func MergeContainerSnapshots(name string, parts []ContainerSnapshot) ContainerSnapshot {
	return telemetry.MergeContainerSnapshots(name, parts)
}

// shardHooksOf builds the per-shard hook selector for a sharded
// observed container: shard i gets its own adapter feeding ms[i],
// owned by that shard's write lock.
func shardHooksOf(ms []*ContainerMetrics) func(int) *container.Hooks {
	return func(i int) *container.Hooks { return containerHooks(ms[i], true) }
}

// NewShardedMapObserved returns a ShardedMap with one metric block
// per shard, created in and registered with r (nil selects the
// default registry) under name.shard0 … name.shard<n-1>. Merge the
// per-shard snapshots with MergeContainerSnapshots for a
// whole-container view.
func NewShardedMapObserved[V any](hash HashFunc, r *MetricsRegistry, name string, opts ...ShardOption) *ShardedMap[V] {
	if r == nil {
		r = telemetry.Default
	}
	m := NewShardedMap[V](hash, opts...)
	m.m.SetShardHooks(shardHooksOf(r.NewContainerShards(name, m.m.Shards())))
	return m
}

// NewShardedSetObserved returns a ShardedSet with per-shard metrics
// (see NewShardedMapObserved).
func NewShardedSetObserved(hash HashFunc, r *MetricsRegistry, name string, opts ...ShardOption) *ShardedSet {
	if r == nil {
		r = telemetry.Default
	}
	s := NewShardedSet(hash, opts...)
	s.s.SetShardHooks(shardHooksOf(r.NewContainerShards(name, s.s.Shards())))
	return s
}

// NewShardedMultiMapObserved returns a ShardedMultiMap with per-shard
// metrics (see NewShardedMapObserved).
func NewShardedMultiMapObserved[V any](hash HashFunc, r *MetricsRegistry, name string, opts ...ShardOption) *ShardedMultiMap[V] {
	if r == nil {
		r = telemetry.Default
	}
	m := NewShardedMultiMap[V](hash, opts...)
	m.m.SetShardHooks(shardHooksOf(r.NewContainerShards(name, m.m.Shards())))
	return m
}

// NewShardedMultiSetObserved returns a ShardedMultiSet with per-shard
// metrics (see NewShardedMapObserved).
func NewShardedMultiSetObserved(hash HashFunc, r *MetricsRegistry, name string, opts ...ShardOption) *ShardedMultiSet {
	if r == nil {
		r = telemetry.Default
	}
	s := NewShardedMultiSet(hash, opts...)
	s.s.SetShardHooks(shardHooksOf(r.NewContainerShards(name, s.s.Shards())))
	return s
}

// NewMapObserved returns a Map whose operations feed cm: per-op probe
// counts, rehashes, and a running bucket-collision (B-Coll) count. A
// nil cm yields a plain, unobserved Map.
func NewMapObserved[V any](hash HashFunc, cm *ContainerMetrics) *Map[V] {
	m := NewMap[V](hash)
	m.m.SetHooks(containerHooks(cm, false))
	return m
}

// NewSetObserved returns a Set whose operations feed cm.
func NewSetObserved(hash HashFunc, cm *ContainerMetrics) *Set {
	s := NewSet(hash)
	s.s.SetHooks(containerHooks(cm, false))
	return s
}

// NewMultiMapObserved returns a MultiMap whose operations feed cm.
func NewMultiMapObserved[V any](hash HashFunc, cm *ContainerMetrics) *MultiMap[V] {
	m := NewMultiMap[V](hash)
	m.m.SetHooks(containerHooks(cm, false))
	return m
}

// NewMultiSetObserved returns a MultiSet whose operations feed cm.
func NewMultiSetObserved(hash HashFunc, cm *ContainerMetrics) *MultiSet {
	s := NewMultiSet(hash)
	s.s.SetHooks(containerHooks(cm, false))
	return s
}
