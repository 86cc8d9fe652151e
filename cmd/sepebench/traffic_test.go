package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestTrafficReportCommand checks that the report names the command
// that reproduces it: the operation count after clamping, and the
// seed. Whether the tenants recover is the traffic smoke's gate, not
// this test's, so the run's verdict is only logged.
func TestTrafficReportCommand(t *testing.T) {
	var out bytes.Buffer
	if err := runTraffic(&out, 1, 3); err != nil {
		t.Log(err)
	}
	var rep trafficReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	const want = "go run ./cmd/sepebench -traffic -traffic-ops 50000 -traffic-seed 3"
	if rep.Command != want {
		t.Errorf("command = %q, want %q", rep.Command, want)
	}
}
