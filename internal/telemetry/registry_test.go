package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func testRegistry() *Registry {
	r := NewRegistry()
	h := r.NewHash("pext")
	fn := Instrument(func(k string) uint64 { return uint64(len(k)) }, h, nil)
	for i := 0; i < 4096; i++ {
		fn("078-05-1120")
	}
	c := r.NewContainer("map")
	c.Put("a", 0)
	c.Put("b", 1)
	c.CollisionDelta(1)
	d := r.NewDrift("ssn", func(k string) bool { return len(k) == 11 }, DriftConfig{})
	d.Observe("078-05-1120")
	r.Gauge("sepe_demo_gauge", func() float64 { return 2.5 })
	return r
}

func TestHandlerPrometheusText(t *testing.T) {
	r := testRegistry()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rw := httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, req)
	body := rw.Body.String()
	for _, want := range []string{
		"sepe_uptime_seconds",
		`sepe_hash_calls_total{hash="pext"} 4096`,
		`sepe_hash_latency_ns{hash="pext",quantile="0.99"}`,
		`sepe_container_ops_total{container="map",op="put"} 2`,
		`sepe_container_bucket_collisions{container="map"} 1`,
		`sepe_drift_mismatch_rate{monitor="ssn"} 0`,
		`sepe_drift_degraded{monitor="ssn"} 0`,
		"sepe_demo_gauge 2.5",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus body missing %q\n%s", want, body)
		}
	}
	if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestHandlerJSON(t *testing.T) {
	r := testRegistry()
	for _, hdr := range []bool{true, false} {
		url := "/metrics?format=json"
		req := httptest.NewRequest("GET", url, nil)
		if hdr {
			req = httptest.NewRequest("GET", "/metrics", nil)
			req.Header.Set("Accept", "application/json")
		}
		rw := httptest.NewRecorder()
		r.Handler().ServeHTTP(rw, req)
		var snap RegistrySnapshot
		if err := json.Unmarshal(rw.Body.Bytes(), &snap); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, rw.Body.String())
		}
		if len(snap.Hashes) != 1 || snap.Hashes[0].Calls != 4096 {
			t.Fatalf("hashes = %+v", snap.Hashes)
		}
		if len(snap.Containers) != 1 || snap.Containers[0].Puts != 2 {
			t.Fatalf("containers = %+v", snap.Containers)
		}
		if len(snap.Drift) != 1 || snap.Drift[0].Observed != 1 {
			t.Fatalf("drift = %+v", snap.Drift)
		}
		if snap.Gauges["sepe_demo_gauge"] != 2.5 {
			t.Fatalf("gauges = %+v", snap.Gauges)
		}
	}
}

func TestExpvarFunc(t *testing.T) {
	r := testRegistry()
	v := r.Expvar()
	out := v.String() // expvar renders via JSON marshalling
	if !strings.Contains(out, `"pext"`) {
		t.Fatalf("expvar output missing hash metrics: %s", out)
	}
}
