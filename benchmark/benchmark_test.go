package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryWorkloadReportsItsMetrics runs each workload briefly at a
// tiny scale, untraced and traced, and checks that the result line
// carries exactly the metrics BENCHMARK.json lists, with their units,
// and that every oracle check passed.
func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}

	bin := filepath.Join(t.TempDir(), "sepeserve")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/sepe-go/sepe/cmd/sepeserve").CombinedOutput(); err != nil {
		t.Fatalf("build sepeserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0.2", "-scale", "0.01", "-trace", trace, "-sepeserve", bin}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Errorf("%s trace=%s: exit %d\n%s", w.name, trace, code, stderr.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var det detail
			var res result
			if len(lines) != 2 || json.Unmarshal([]byte(lines[0]), &det) != nil || json.Unmarshal([]byte(lines[1]), &res) != nil {
				t.Errorf("%s trace=%s: want a detail and a result line, got:\n%s", w.name, trace, stdout.String())
				continue
			}
			if det.Workload != w.name || det.Env["go"] == nil {
				t.Errorf("%s trace=%s: detail line %s", w.name, trace, lines[0])
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: %s unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}
