package telemetry

import (
	"fmt"
	"testing"
)

func ssnLike(k string) bool {
	if len(k) != 11 {
		return false
	}
	for i, c := range k {
		if i == 3 || i == 6 {
			if c != '-' {
				return false
			}
		} else if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func ssnKey(i int) string {
	return fmt.Sprintf("%03d-%02d-%04d", i%1000, i%100, i%10000)
}

func TestDriftConformingStreamStaysHealthy(t *testing.T) {
	d := NewDriftMonitor("ssn", ssnLike, DriftConfig{})
	for i := 0; i < 10000; i++ {
		d.Observe(ssnKey(i))
	}
	if d.Degraded() {
		t.Fatal("conforming stream reported degraded")
	}
	if rate := d.MismatchRate(); rate != 0 {
		t.Fatalf("MismatchRate = %g, want 0", rate)
	}
	s := d.Snapshot()
	if s.Observed != 10000 || s.Sampled != 10000 || s.Mismatched != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestDriftTwentyPercentOffFormatDegrades(t *testing.T) {
	fired := 0
	var firedSnap DriftSnapshot
	d := NewDriftMonitor("ssn", ssnLike, DriftConfig{
		OnDegrade: func(s DriftSnapshot) {
			fired++
			firedSnap = s
		},
	})
	// 20% of the stream is off-format: above the 10% default threshold.
	for i := 0; i < 10000; i++ {
		if i%5 == 0 {
			d.Observe("not-an-ssn-key")
		} else {
			d.Observe(ssnKey(i))
		}
	}
	if !d.Degraded() {
		t.Fatal("20% off-format stream did not degrade")
	}
	if rate := d.MismatchRate(); rate < 0.15 || rate > 0.25 {
		t.Fatalf("MismatchRate = %g, want ~0.20", rate)
	}
	if fired != 1 {
		t.Fatalf("OnDegrade fired %d times, want exactly once", fired)
	}
	if !firedSnap.Degraded {
		t.Fatalf("OnDegrade snapshot = %+v", firedSnap)
	}
}

func TestDriftRecoversButCallbackStaysOneShot(t *testing.T) {
	fired := 0
	d := NewDriftMonitor("ssn", ssnLike, DriftConfig{
		Window: 64, MinSamples: 16,
		OnDegrade: func(DriftSnapshot) { fired++ },
	})
	for i := 0; i < 100; i++ {
		d.Observe("bad")
	}
	if !d.Degraded() {
		t.Fatal("all-bad stream did not degrade")
	}
	// A full window of conforming keys pushes the rate back to zero.
	for i := 0; i < 200; i++ {
		d.Observe(ssnKey(i))
	}
	if d.Degraded() {
		t.Fatal("monitor did not recover after a conforming window")
	}
	// Degrade again: the signal flips, the callback does not re-fire.
	for i := 0; i < 100; i++ {
		d.Observe("bad")
	}
	if !d.Degraded() {
		t.Fatal("second drift not detected")
	}
	if fired != 1 {
		t.Fatalf("OnDegrade fired %d times, want exactly once", fired)
	}
}

func TestDriftMinSamplesGate(t *testing.T) {
	d := NewDriftMonitor("s", func(string) bool { return false },
		DriftConfig{Window: 256, MinSamples: 64})
	for i := 0; i < 32; i++ {
		d.Observe("bad")
	}
	if d.Degraded() {
		t.Fatal("degraded before MinSamples were collected")
	}
}

func TestDriftNilObserve(t *testing.T) {
	var d *DriftMonitor
	d.Observe("x") // must not panic
}

func TestDriftResetClearsWindowAndRearmsCallback(t *testing.T) {
	fired := 0
	d := NewDriftMonitor("ssn", ssnLike, DriftConfig{
		Window: 64, MinSamples: 16,
		OnDegrade: func(DriftSnapshot) { fired++ },
	})
	for i := 0; i < 100; i++ {
		d.Observe("bad")
	}
	if !d.Degraded() || fired != 1 {
		t.Fatalf("setup: degraded=%v fired=%d", d.Degraded(), fired)
	}
	before := d.Snapshot()

	d.Reset()
	if d.Degraded() {
		t.Fatal("Reset did not clear the degraded flag")
	}
	if rate := d.MismatchRate(); rate != 0 {
		t.Fatalf("MismatchRate after Reset = %g, want 0", rate)
	}
	// Lifetime counters survive the reset.
	after := d.Snapshot()
	if after.Observed != before.Observed || after.Mismatched != before.Mismatched {
		t.Fatalf("Reset dropped lifetime counters: before=%+v after=%+v", before, after)
	}
	// The MinSamples gate applies afresh: a few stale mismatches from a
	// previous life cannot re-trip the alarm.
	for i := 0; i < 8; i++ {
		d.Observe("bad")
	}
	if d.Degraded() {
		t.Fatal("degraded before MinSamples after Reset")
	}
	// A full second degradation re-fires the re-armed callback.
	for i := 0; i < 100; i++ {
		d.Observe("bad")
	}
	if !d.Degraded() {
		t.Fatal("second drift not detected after Reset")
	}
	if fired != 2 {
		t.Fatalf("OnDegrade fired %d times, want 2 (re-armed by Reset)", fired)
	}
}
