package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Registry names and aggregates metric blocks so one HTTP endpoint
// can expose every instrumented hash, container and drift monitor of
// a process. Registration and snapshotting are mutex-guarded; the
// metric hot paths never touch the registry. Every registry owns a
// flight recorder; blocks created through the registry feed their
// lifecycle events (state transitions, drift alarms, migrations)
// into it.
type Registry struct {
	mu         sync.Mutex
	start      time.Time
	hashes     []*HashMetrics
	containers []*ContainerMetrics
	drifts     []*DriftMonitor
	adaptives  []*AdaptiveMetrics
	gauges     map[string]func() float64
	redact     func(string) string
	rec        *Recorder
}

// NewRegistry returns an empty registry with an enabled flight
// recorder of DefaultRecorderCap events.
func NewRegistry() *Registry {
	return &Registry{
		start:  time.Now(),
		gauges: map[string]func() float64{},
		rec:    NewRecorder(0),
	}
}

// Default is the process-wide registry the convenience constructors
// register into.
var Default = NewRegistry()

// Recorder returns the registry's flight recorder. It never returns
// nil for a registry built with NewRegistry.
func (r *Registry) Recorder() *Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec
}

// SetRedactor installs fn as the exemplar redactor: every exemplar
// key (slowest key, longest-probe key, counterexamples) passes through
// fn at snapshot/export time. Raw keys stay in memory — block-level
// Snapshot calls on the metric structs themselves are unredacted — but
// nothing leaves the registry's JSON or Prometheus surfaces without
// passing fn. The same fn is installed on the registry's flight
// recorder, so sensitive attributes of recorded events (certifier
// counterexamples among them) are covered by the one policy when
// exported as JSON lines or Chrome traces. A nil fn removes redaction.
func (r *Registry) SetRedactor(fn func(string) string) {
	r.mu.Lock()
	r.redact = fn
	r.rec.SetRedactor(fn)
	r.mu.Unlock()
}

// NewHash creates a HashMetrics block and registers it.
func (r *Registry) NewHash(name string) *HashMetrics {
	m := NewHashMetrics(name)
	r.mu.Lock()
	m.rec = r.rec
	r.hashes = append(r.hashes, m)
	r.mu.Unlock()
	return m
}

// NewContainer creates a ContainerMetrics block and registers it.
func (r *Registry) NewContainer(name string) *ContainerMetrics {
	m := NewContainerMetrics(name)
	r.mu.Lock()
	m.rec = r.rec
	r.containers = append(r.containers, m)
	r.mu.Unlock()
	return m
}

// NewContainerShards creates one ContainerMetrics block per shard of
// a sharded container, named name.shard0 … name.shard<n-1>, and
// registers each. Callers merge the per-shard snapshots with
// MergeContainerSnapshots when a whole-container view is wanted.
func (r *Registry) NewContainerShards(name string, n int) []*ContainerMetrics {
	ms := make([]*ContainerMetrics, n)
	for i := range ms {
		ms[i] = NewContainerMetrics(name + ".shard" + strconv.Itoa(i))
	}
	r.mu.Lock()
	for _, m := range ms {
		m.rec = r.rec
	}
	r.containers = append(r.containers, ms...)
	r.mu.Unlock()
	return ms
}

// NewDrift creates a DriftMonitor and registers it.
func (r *Registry) NewDrift(name string, matches func(string) bool, cfg DriftConfig) *DriftMonitor {
	d := NewDriftMonitor(name, matches, cfg)
	r.mu.Lock()
	d.rec = r.rec
	r.drifts = append(r.drifts, d)
	r.mu.Unlock()
	return d
}

// NewAdaptive creates an AdaptiveMetrics block and registers it.
func (r *Registry) NewAdaptive(name string) *AdaptiveMetrics {
	m := NewAdaptiveMetrics(name)
	r.mu.Lock()
	m.rec = r.rec
	r.adaptives = append(r.adaptives, m)
	r.mu.Unlock()
	return m
}

// Gauge registers a named float gauge evaluated at snapshot time.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// RegistrySnapshot is a point-in-time copy of every registered metric.
type RegistrySnapshot struct {
	UptimeSeconds float64             `json:"uptime_seconds"`
	Hashes        []HashSnapshot      `json:"hashes,omitempty"`
	Containers    []ContainerSnapshot `json:"containers,omitempty"`
	Drift         []DriftSnapshot     `json:"drift,omitempty"`
	Adaptive      []AdaptiveSnapshot  `json:"adaptive,omitempty"`
	Gauges        map[string]float64  `json:"gauges,omitempty"`
	Health        HealthReport        `json:"health"`
}

// Snapshot copies the current state of every registered metric,
// including the aggregated health report, with exemplar keys passed
// through the registry's redactor.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	hashes := append([]*HashMetrics(nil), r.hashes...)
	containers := append([]*ContainerMetrics(nil), r.containers...)
	drifts := append([]*DriftMonitor(nil), r.drifts...)
	adaptives := append([]*AdaptiveMetrics(nil), r.adaptives...)
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	start := r.start
	redact := r.redact
	r.mu.Unlock()

	s := RegistrySnapshot{UptimeSeconds: time.Since(start).Seconds()}
	for _, m := range hashes {
		s.Hashes = append(s.Hashes, m.Snapshot())
	}
	for _, m := range containers {
		s.Containers = append(s.Containers, m.Snapshot())
	}
	for _, d := range drifts {
		s.Drift = append(s.Drift, d.Snapshot())
	}
	for _, a := range adaptives {
		s.Adaptive = append(s.Adaptive, a.Snapshot())
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]float64, len(gauges))
		for k, fn := range gauges {
			s.Gauges[k] = fn()
		}
	}
	s.Health = r.Health()
	if redact != nil {
		redactSnapshot(&s, redact)
	}
	return s
}

// redactSnapshot passes every exemplar key in s through fn, in place.
func redactSnapshot(s *RegistrySnapshot, fn func(string) string) {
	for i := range s.Hashes {
		h := &s.Hashes[i]
		if h.Slowest != nil {
			ex := *h.Slowest
			ex.Key = fn(ex.Key)
			h.Slowest = &ex
		}
		if len(h.Counterexamples) > 0 {
			red := make([]string, len(h.Counterexamples))
			for j, k := range h.Counterexamples {
				red[j] = fn(k)
			}
			h.Counterexamples = red
		}
	}
	for i := range s.Containers {
		c := &s.Containers[i]
		if c.LongestProbe != nil {
			ex := *c.LongestProbe
			ex.Key = fn(ex.Key)
			c.LongestProbe = &ex
		}
	}
}

// Handler returns an http.Handler serving the registry. The default
// response is Prometheus text exposition; JSON (the expvar-style
// object of Snapshot) is served when the request asks for it with
// ?format=json or an Accept: application/json header.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := r.Snapshot()
		if req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(s); err != nil {
				r.Recorder().Instant("telemetry", "metrics-write-failed",
					Str("error", err.Error()))
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, s)
	})
}

// Expvar returns the registry as an expvar.Func, so processes already
// serving /debug/vars can publish it under a single variable:
//
//	expvar.Publish("sepe", registry.Expvar())
func (r *Registry) Expvar() expvar.Func {
	return expvar.Func(func() any { return r.Snapshot() })
}

// promEscaper implements the Prometheus text-exposition label-value
// escaping rules: exactly backslash, double-quote and newline are
// escaped — nothing else. %q is not equivalent (it also escapes
// non-ASCII and control bytes, which the exposition format passes
// through raw as UTF-8).
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// label renders one name=value label pair with exposition escaping.
func label(name, value string) string {
	return name + `="` + promEscaper.Replace(value) + `"`
}

// writePrometheus renders a snapshot in the Prometheus text format:
// counters for calls/ops, summary-style quantile gauges for the
// sampled latency and probe histograms, and gauges for drift and
// health state.
func writePrometheus(w io.Writer, s RegistrySnapshot) {
	fmt.Fprintf(w, "# TYPE sepe_uptime_seconds gauge\nsepe_uptime_seconds %g\n", s.UptimeSeconds)

	if len(s.Hashes) > 0 {
		fmt.Fprint(w, "# TYPE sepe_hash_calls_total counter\n")
		for _, h := range s.Hashes {
			fmt.Fprintf(w, "sepe_hash_calls_total{%s} %d\n", label("hash", h.Name), h.Calls)
		}
		fmt.Fprint(w, "# TYPE sepe_hash_latency_ns summary\n")
		for _, h := range s.Hashes {
			l := label("hash", h.Name)
			fmt.Fprintf(w, "sepe_hash_latency_ns{%s,quantile=\"0.5\"} %d\n", l, h.P50)
			fmt.Fprintf(w, "sepe_hash_latency_ns{%s,quantile=\"0.9\"} %d\n", l, h.P90)
			fmt.Fprintf(w, "sepe_hash_latency_ns{%s,quantile=\"0.99\"} %d\n", l, h.P99)
			fmt.Fprintf(w, "sepe_hash_latency_ns{%s,quantile=\"0.999\"} %d\n", l, h.P999)
			fmt.Fprintf(w, "sepe_hash_latency_ns_count{%s} %d\n", l, h.Sampled)
		}
		fmt.Fprint(w, "# TYPE sepe_hash_latency_slowest_ns gauge\n")
		for _, h := range s.Hashes {
			if h.Slowest == nil {
				continue
			}
			fmt.Fprintf(w, "sepe_hash_latency_slowest_ns{%s,%s} %d\n",
				label("hash", h.Name), label("key", h.Slowest.Key), h.Slowest.Value)
		}
	}

	if len(s.Containers) > 0 {
		fmt.Fprint(w, "# TYPE sepe_container_ops_total counter\n")
		for _, c := range s.Containers {
			l := label("container", c.Name)
			fmt.Fprintf(w, "sepe_container_ops_total{%s,op=\"put\"} %d\n", l, c.Puts)
			fmt.Fprintf(w, "sepe_container_ops_total{%s,op=\"get\"} %d\n", l, c.Gets)
			fmt.Fprintf(w, "sepe_container_ops_total{%s,op=\"delete\"} %d\n", l, c.Deletes)
		}
		fmt.Fprint(w, "# TYPE sepe_container_rehashes_total counter\n")
		for _, c := range s.Containers {
			fmt.Fprintf(w, "sepe_container_rehashes_total{%s} %d\n", label("container", c.Name), c.Rehashes)
		}
		fmt.Fprint(w, "# TYPE sepe_container_migrations_total counter\n")
		for _, c := range s.Containers {
			fmt.Fprintf(w, "sepe_container_migrations_total{%s} %d\n", label("container", c.Name), c.Migrations)
		}
		fmt.Fprint(w, "# TYPE sepe_container_migrating gauge\n")
		for _, c := range s.Containers {
			fmt.Fprintf(w, "sepe_container_migrating{%s} %g\n", label("container", c.Name), healthGauge(c.Migrating))
		}
		fmt.Fprint(w, "# TYPE sepe_container_bucket_collisions gauge\n")
		for _, c := range s.Containers {
			fmt.Fprintf(w, "sepe_container_bucket_collisions{%s} %d\n", label("container", c.Name), c.BucketCollisions)
		}
		fmt.Fprint(w, "# TYPE sepe_container_probe_len summary\n")
		for _, c := range s.Containers {
			l := label("container", c.Name)
			fmt.Fprintf(w, "sepe_container_probe_len{%s,quantile=\"0.5\"} %d\n", l, c.ProbeP50)
			fmt.Fprintf(w, "sepe_container_probe_len{%s,quantile=\"0.99\"} %d\n", l, c.ProbeP99)
			for _, op := range [...]struct {
				name string
				p    OpProbes
			}{{"put", c.PutProbes}, {"get", c.GetProbes}, {"delete", c.DeleteProbes}} {
				fmt.Fprintf(w, "sepe_container_probe_len{%s,op=%q,quantile=\"0.5\"} %d\n", l, op.name, op.p.P50)
				fmt.Fprintf(w, "sepe_container_probe_len{%s,op=%q,quantile=\"0.99\"} %d\n", l, op.name, op.p.P99)
			}
		}
	}

	if len(s.Drift) > 0 {
		fmt.Fprint(w, "# TYPE sepe_drift_observed_total counter\n")
		for _, d := range s.Drift {
			fmt.Fprintf(w, "sepe_drift_observed_total{%s} %d\n", label("monitor", d.Name), d.Observed)
		}
		fmt.Fprint(w, "# TYPE sepe_drift_mismatch_rate gauge\n")
		for _, d := range s.Drift {
			fmt.Fprintf(w, "sepe_drift_mismatch_rate{%s} %g\n", label("monitor", d.Name), d.WindowRate)
		}
		fmt.Fprint(w, "# TYPE sepe_drift_degraded gauge\n")
		for _, d := range s.Drift {
			fmt.Fprintf(w, "sepe_drift_degraded{%s} %g\n", label("monitor", d.Name), healthGauge(d.Degraded))
		}
	}

	if len(s.Adaptive) > 0 {
		fmt.Fprint(w, "# TYPE sepe_adaptive_state gauge\n")
		for _, a := range s.Adaptive {
			fmt.Fprintf(w, "sepe_adaptive_state{%s,%s} %d\n",
				label("hash", a.Name), label("state", a.StateName), a.State)
		}
		fmt.Fprint(w, "# TYPE sepe_adaptive_ready gauge\n")
		for _, a := range s.Adaptive {
			fmt.Fprintf(w, "sepe_adaptive_ready{%s} %g\n", label("hash", a.Name), healthGauge(a.Ready))
		}
		fmt.Fprint(w, "# TYPE sepe_adaptive_transitions_total counter\n")
		for _, a := range s.Adaptive {
			fmt.Fprintf(w, "sepe_adaptive_transitions_total{%s} %d\n", label("hash", a.Name), a.Transitions)
		}
		fmt.Fprint(w, "# TYPE sepe_adaptive_generations_total counter\n")
		for _, a := range s.Adaptive {
			fmt.Fprintf(w, "sepe_adaptive_generations_total{%s} %d\n", label("hash", a.Name), a.Generations)
		}
		fmt.Fprint(w, "# TYPE sepe_adaptive_resynth_total counter\n")
		for _, a := range s.Adaptive {
			l := label("hash", a.Name)
			fmt.Fprintf(w, "sepe_adaptive_resynth_total{%s,outcome=\"attempt\"} %d\n", l, a.ResynthAttempts)
			fmt.Fprintf(w, "sepe_adaptive_resynth_total{%s,outcome=\"failure\"} %d\n", l, a.ResynthFailures)
			fmt.Fprintf(w, "sepe_adaptive_resynth_total{%s,outcome=\"success\"} %d\n", l, a.ResynthSuccesses)
		}
	}

	fmt.Fprintf(w, "# TYPE sepe_health_ready gauge\nsepe_health_ready %g\n", healthGauge(s.Health.Ready))
	fmt.Fprintf(w, "# TYPE sepe_health_live gauge\nsepe_health_live %g\n", healthGauge(s.Health.Live))

	if len(s.Gauges) > 0 {
		names := make([]string, 0, len(s.Gauges))
		for n := range s.Gauges {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", n, n, s.Gauges[n])
		}
	}
}
