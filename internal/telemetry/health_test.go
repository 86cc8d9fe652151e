package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHealthEmptyRegistry(t *testing.T) {
	r := NewRegistry()
	rep := r.Health()
	if !rep.Ready || !rep.Live || rep.Status != "ok" {
		t.Fatalf("empty registry health = %+v", rep)
	}
}

func TestHealthAggregation(t *testing.T) {
	r := NewRegistry()
	a := r.NewAdaptive("ssn")
	a.SetState(0, "Specialized", HealthReady)
	d := r.NewDrift("mac", func(k string) bool { return len(k) == 17 },
		DriftConfig{Window: 8, MinSamples: 4})

	rep := r.Health()
	if !rep.Ready || !rep.Live || rep.Status != "ok" {
		t.Fatalf("healthy: %+v", rep)
	}
	if len(rep.Components) != 2 {
		t.Fatalf("components = %+v", rep.Components)
	}

	// Degraded adaptive: not ready, still live.
	a.SetState(1, "Degraded", HealthNotReady)
	rep = r.Health()
	if rep.Ready || !rep.Live || rep.Status != "degraded" {
		t.Fatalf("degraded: %+v", rep)
	}

	// Pinned adaptive: fails liveness.
	a.SetState(4, "Pinned", HealthFailed)
	rep = r.Health()
	if rep.Ready || rep.Live || rep.Status != "unhealthy" {
		t.Fatalf("pinned: %+v", rep)
	}

	// Recovery: ready again; then a drifting monitor takes readiness
	// (but not liveness) down.
	a.SetState(3, "Recovered", HealthReady)
	for i := 0; i < 8; i++ {
		d.Observe("not-a-mac")
	}
	rep = r.Health()
	if rep.Ready || !rep.Live || rep.Status != "degraded" {
		t.Fatalf("drifting: %+v", rep)
	}
	var driftRow *ComponentHealth
	for i := range rep.Components {
		if rep.Components[i].Kind == "drift" {
			driftRow = &rep.Components[i]
		}
	}
	if driftRow == nil || driftRow.Ready || !driftRow.Live {
		t.Fatalf("drift row = %+v", driftRow)
	}
}

// TestHealthDriftOwnedByAdaptive: a drift monitor sharing its name
// with an adaptive block reports but does not double-count readiness —
// the adaptive state already reflects the degradation (the wrapper
// swapped to its fallback).
func TestHealthDriftOwnedByAdaptive(t *testing.T) {
	r := NewRegistry()
	a := r.NewAdaptive("ssn")
	a.SetState(1, "Degraded", HealthNotReady)
	d := r.NewDrift("ssn", func(string) bool { return false },
		DriftConfig{Window: 8, MinSamples: 4})
	for i := 0; i < 8; i++ {
		d.Observe("x")
	}
	rep := r.Health()
	for _, c := range rep.Components {
		if c.Kind == "drift" && !c.Ready {
			t.Fatalf("owned drift row counted against readiness: %+v", c)
		}
	}
	if rep.Ready {
		t.Fatal("degraded adaptive did not take readiness down")
	}
}

func TestHealthHandlerProbes(t *testing.T) {
	r := NewRegistry()
	a := r.NewAdaptive("ssn")
	a.SetState(1, "Degraded", HealthNotReady)

	get := func(path string) (int, HealthReport) {
		rw := httptest.NewRecorder()
		r.HealthHandler().ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
		var rep HealthReport
		if err := json.Unmarshal(rw.Body.Bytes(), &rep); err != nil {
			t.Fatalf("%s: body %q: %v", path, rw.Body.String(), err)
		}
		return rw.Code, rep
	}

	// Degraded: readiness 503, liveness 200, same report body.
	if code, rep := get("/healthz"); code != 503 || rep.Status != "degraded" {
		t.Fatalf("/healthz = %d %+v", code, rep)
	}
	if code, _ := get("/livez"); code != 200 {
		t.Fatalf("/livez = %d, want 200 while degraded", code)
	}
	if code, _ := get("/health?probe=live"); code != 200 {
		t.Fatalf("?probe=live = %d, want 200", code)
	}

	// Pinned: both probes fail.
	a.SetState(4, "Pinned", HealthFailed)
	if code, _ := get("/healthz"); code != 503 {
		t.Fatalf("pinned /healthz = %d", code)
	}
	if code, rep := get("/livez"); code != 503 || rep.Status != "unhealthy" {
		t.Fatalf("pinned /livez = %d %+v", code, rep)
	}

	// Ready: both 200.
	a.SetState(0, "Specialized", HealthReady)
	if code, rep := get("/healthz"); code != 200 || !rep.Ready {
		t.Fatalf("ready /healthz = %d %+v", code, rep)
	}
}

func TestHealthInSnapshotAndPrometheus(t *testing.T) {
	r := NewRegistry()
	a := r.NewAdaptive("ssn")
	a.SetState(0, "Specialized", HealthReady)
	snap := r.Snapshot()
	if !snap.Health.Ready || !snap.Health.Live {
		t.Fatalf("snapshot health = %+v", snap.Health)
	}
	rw := httptest.NewRecorder()
	r.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	body := rw.Body.String()
	for _, want := range []string{
		"sepe_health_ready 1", "sepe_health_live 1", `sepe_adaptive_ready{hash="ssn"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus missing %q:\n%s", want, body)
		}
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	snap := r.Snapshot()
	if len(snap.Gauges) == 0 {
		t.Fatal("no runtime gauges registered")
	}
	if v, ok := snap.Gauges["sepe_runtime_goroutines"]; !ok || v < 1 {
		t.Fatalf("sepe_runtime_goroutines = %v (ok=%v)", v, ok)
	}
	if v, ok := snap.Gauges["sepe_runtime_heap_objects_bytes"]; !ok || v <= 0 {
		t.Fatalf("sepe_runtime_heap_objects_bytes = %v (ok=%v)", v, ok)
	}
}
