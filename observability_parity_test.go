package sepe_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/sepe-go/sepe"
)

// TestPrometheusJSONParity parses the metrics handler's Prometheus
// text exposition and cross-checks every sample against the JSON
// snapshot served by the same handler, so the two surfaces cannot
// drift apart. The registry deliberately includes a metric name full
// of exposition-hostile characters (quotes, backslashes, a newline)
// to pin the label-escaping rules.
func TestPrometheusJSONParity(t *testing.T) {
	r := sepe.NewMetricsRegistry()

	hostile := "fmt\"quoted\\back\nline"
	h := r.NewHash(hostile)
	h.ObserveLatency("078-05-1120", 250, 1)
	h.ObserveLatency("078-05-1121", 90, 2)

	c := r.NewContainer("map")
	c.Put("a", 2)
	c.Get("b", 5)
	c.Delete("c", 1)
	c.CollisionDelta(3)
	c.Rehash(2)
	c.MigrateStart(13, 29)

	d := r.NewDrift("ssn", func(k string) bool { return len(k) == 11 }, sepe.DriftConfig{})
	d.Observe("078-05-1120")
	d.Observe("bad")

	a := r.NewAdaptive("ssn")
	a.SetState(1, "Degraded", sepe.HealthNotReady)
	a.Generation()
	a.Attempt()
	a.Failure()

	r.Gauge("sepe_demo_gauge", func() float64 { return 2.5 })

	// One snapshot drives the expectations; the text exposition is
	// fetched after it, so monotonic counters cannot move in between
	// (nothing feeds the registry concurrently).
	snap := r.Snapshot()
	get := func(accept string) *httptest.ResponseRecorder {
		rw := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		r.Handler().ServeHTTP(rw, req)
		return rw
	}

	var jsnap sepe.MetricsSnapshot
	if err := json.Unmarshal(get("application/json").Body.Bytes(), &jsnap); err != nil {
		t.Fatalf("JSON surface: %v", err)
	}
	samples := parseExposition(t, get("").Body.String())

	// Build the expected sample set from the JSON snapshot — one entry
	// per (family, label set) the exposition must carry, with the value
	// the JSON reports.
	expect := map[string]float64{}
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	for _, hs := range jsnap.Hashes {
		l := fmt.Sprintf(`hash=%s`, promQuote(hs.Name))
		expect[`sepe_hash_calls_total{`+l+`}`] = float64(hs.Calls)
		expect[`sepe_hash_latency_ns{`+l+`,quantile="0.5"}`] = float64(hs.P50)
		expect[`sepe_hash_latency_ns{`+l+`,quantile="0.9"}`] = float64(hs.P90)
		expect[`sepe_hash_latency_ns{`+l+`,quantile="0.99"}`] = float64(hs.P99)
		expect[`sepe_hash_latency_ns{`+l+`,quantile="0.999"}`] = float64(hs.P999)
		expect[`sepe_hash_latency_ns_count{`+l+`}`] = float64(hs.Sampled)
		if hs.Slowest != nil {
			expect[`sepe_hash_latency_slowest_ns{`+l+`,key=`+promQuote(hs.Slowest.Key)+`}`] = float64(hs.Slowest.Value)
		}
	}
	for _, cs := range jsnap.Containers {
		l := `container=` + promQuote(cs.Name)
		expect[`sepe_container_ops_total{`+l+`,op="put"}`] = float64(cs.Puts)
		expect[`sepe_container_ops_total{`+l+`,op="get"}`] = float64(cs.Gets)
		expect[`sepe_container_ops_total{`+l+`,op="delete"}`] = float64(cs.Deletes)
		expect[`sepe_container_rehashes_total{`+l+`}`] = float64(cs.Rehashes)
		expect[`sepe_container_migrations_total{`+l+`}`] = float64(cs.Migrations)
		expect[`sepe_container_migrating{`+l+`}`] = b(cs.Migrating)
		expect[`sepe_container_bucket_collisions{`+l+`}`] = float64(cs.BucketCollisions)
		expect[`sepe_container_probe_len{`+l+`,quantile="0.5"}`] = float64(cs.ProbeP50)
		expect[`sepe_container_probe_len{`+l+`,quantile="0.99"}`] = float64(cs.ProbeP99)
		for op, p := range map[string]struct{ P50, P99 uint64 }{
			"put":    {cs.PutProbes.P50, cs.PutProbes.P99},
			"get":    {cs.GetProbes.P50, cs.GetProbes.P99},
			"delete": {cs.DeleteProbes.P50, cs.DeleteProbes.P99},
		} {
			expect[`sepe_container_probe_len{`+l+`,op="`+op+`",quantile="0.5"}`] = float64(p.P50)
			expect[`sepe_container_probe_len{`+l+`,op="`+op+`",quantile="0.99"}`] = float64(p.P99)
		}
	}
	for _, ds := range jsnap.Drift {
		l := `monitor=` + promQuote(ds.Name)
		expect[`sepe_drift_observed_total{`+l+`}`] = float64(ds.Observed)
		expect[`sepe_drift_mismatch_rate{`+l+`}`] = ds.WindowRate
		expect[`sepe_drift_degraded{`+l+`}`] = b(ds.Degraded)
	}
	for _, as := range jsnap.Adaptive {
		l := `hash=` + promQuote(as.Name)
		expect[`sepe_adaptive_state{`+l+`,state=`+promQuote(as.StateName)+`}`] = float64(as.State)
		expect[`sepe_adaptive_ready{`+l+`}`] = b(as.Ready)
		expect[`sepe_adaptive_transitions_total{`+l+`}`] = float64(as.Transitions)
		expect[`sepe_adaptive_generations_total{`+l+`}`] = float64(as.Generations)
		expect[`sepe_adaptive_resynth_total{`+l+`,outcome="attempt"}`] = float64(as.ResynthAttempts)
		expect[`sepe_adaptive_resynth_total{`+l+`,outcome="failure"}`] = float64(as.ResynthFailures)
		expect[`sepe_adaptive_resynth_total{`+l+`,outcome="success"}`] = float64(as.ResynthSuccesses)
	}
	expect[`sepe_health_ready`] = b(jsnap.Health.Ready)
	expect[`sepe_health_live`] = b(jsnap.Health.Live)
	for name, v := range jsnap.Gauges {
		expect[name] = v
	}

	for key, want := range expect {
		got, ok := samples[key]
		if !ok {
			keys := make([]string, 0, len(samples))
			for k := range samples {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			t.Fatalf("exposition missing %s\nhave:\n%s", key, strings.Join(keys, "\n"))
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: exposition %g, JSON %g", key, got, want)
		}
	}
	// Every exposition sample must be explainable from the JSON — no
	// family may exist on one surface only (uptime moves between the
	// two requests, so it is checked for presence, not value).
	for key := range samples {
		if key == "sepe_uptime_seconds" {
			continue
		}
		if _, ok := expect[key]; !ok {
			t.Errorf("exposition sample %s has no JSON counterpart", key)
		}
	}
	if _, ok := samples["sepe_uptime_seconds"]; !ok {
		t.Error("exposition missing sepe_uptime_seconds")
	}
	if snap.UptimeSeconds < 0 {
		t.Error("negative uptime")
	}
}

// promQuote renders a label value with Prometheus exposition escaping
// (backslash, quote, newline — nothing else).
func promQuote(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return `"` + s + `"`
}

// parseExposition parses Prometheus text exposition into a map from
// "name" or "name{labels}" (labels in source order, escaped form) to
// the sample value, validating the escaping as it goes.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space outside braces; label values
		// may contain escaped anything, but never a raw newline, so a
		// line is one sample.
		i := strings.LastIndex(line, " ")
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		key, val := line[:i], line[i+1:]
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("line %q: bad value: %v", line, err)
		}
		if j := strings.IndexByte(key, '{'); j >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %q: unbalanced braces", line)
			}
			validateLabels(t, key[j+1:len(key)-1])
		}
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		out[key] = f
	}
	return out
}

// validateLabels walks a label body (the text between braces) and
// fails on malformed escaping: label values must be double-quoted with
// only \\, \" and \n escapes, and raw newlines/quotes must not appear.
func validateLabels(t *testing.T, s string) {
	t.Helper()
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || len(s) < eq+2 || s[eq+1] != '"' {
			t.Fatalf("label body %q: expected name=\"...\"", s)
		}
		rest := s[eq+2:]
		end := -1
		for i := 0; i < len(rest); i++ {
			switch rest[i] {
			case '\\':
				if i+1 >= len(rest) || (rest[i+1] != '\\' && rest[i+1] != '"' && rest[i+1] != 'n') {
					t.Fatalf("label body %q: invalid escape", s)
				}
				i++
			case '"':
				end = i
			case '\n':
				t.Fatalf("label body %q: raw newline in label value", s)
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			t.Fatalf("label body %q: unterminated label value", s)
		}
		rest = rest[end+1:]
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		} else if rest != "" {
			t.Fatalf("label body %q: trailing garbage %q", s, rest)
		}
		s = rest
	}
}
