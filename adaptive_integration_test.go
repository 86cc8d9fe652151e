// End-to-end self-healing test: a container under a synthesized SSN
// hash sees its key stream drift to IPv4 keys, detects the drift,
// falls back, re-infers the new format from observed keys, synthesizes
// a fresh specialized function, migrates its buckets incrementally,
// and recovers — with no lost or corrupted entries and a final bucket
// quality within 2× of a from-scratch baseline.
package sepe_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/sepe-go/sepe"
)

func TestAdaptiveEndToEndDriftRecoveryLoop(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	reg := sepe.NewMetricsRegistry()
	ah, err := sepe.NewAdaptiveHash("e2e", f, sepe.Pext, sepe.AdaptiveConfig{
		SampleEvery:    1, // observe every key: deterministic detection
		MinKeys:        64,
		MaxAttempts:    4,
		InitialBackoff: time.Millisecond,
		AttemptTimeout: 30 * time.Second,
		Drift:          sepe.DriftConfig{Window: 64, MinSamples: 16},
		Registry:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()

	m := sepe.NewMap[int](ah)

	// Phase 1: conforming SSN traffic.
	const pre = 4000
	for i := 0; i < pre; i++ {
		m.Put(ssn(i), i)
	}
	if got := ah.State(); got != sepe.AdaptiveSpecialized {
		t.Fatalf("phase 1 state = %v", got)
	}

	// Phase 2: the stream drifts to IPv4 keys. Keep inserting until
	// the machine walks detect → fallback → resynthesize → recover.
	// Real inference and synthesis run in the background goroutine.
	ipKeys := 0
	deadline := time.Now().Add(60 * time.Second)
	for ah.State() != sepe.AdaptiveRecovered {
		if time.Now().After(deadline) {
			t.Fatalf("no recovery; state=%v metrics=%+v", ah.State(), ah.Metrics().Snapshot())
		}
		m.Put(ipv4(ipKeys), -ipKeys)
		ipKeys++
	}
	if gen := ah.Generation(); gen != 3 {
		t.Fatalf("generation = %d, want 3 (specialized→fallback→promoted)", gen)
	}

	// Phase 3: more recovered-format traffic drains the migration. The
	// container checks the hash's generation only every few ops, so the
	// first iterations guarantee the promoted function's migration
	// actually starts before the loop waits for it to finish.
	extra := 0
	for extra < 64 || m.Migrating() {
		m.Put(ipv4(ipKeys+extra), -(ipKeys + extra))
		extra++
		if extra > 100000 {
			t.Fatal("migration never drained")
		}
	}
	total := ipKeys + extra

	// The promoted function must be a real specialization of the new
	// stream: the re-inferred format admits IPv4 keys, and the drift
	// monitor judges the recovered stream healthy.
	if ah.Monitor().Degraded() {
		t.Fatal("monitor degraded after recovery")
	}
	s := ah.Metrics().Snapshot()
	if s.ResynthSuccesses < 1 {
		t.Fatalf("no successful resynthesis recorded: %+v", s)
	}

	// The lifecycle was exported: the registry carries the adaptive
	// block in its Recovered state. Checked before the read-back below,
	// which deliberately replays retired-format SSN keys — traffic the
	// machine would (correctly!) flag as a fresh drift if observed.
	snap := reg.Snapshot()
	if len(snap.Adaptive) != 1 || snap.Adaptive[0].StateName != "Recovered" {
		t.Fatalf("registry adaptive = %+v", snap.Adaptive)
	}

	// No lost or corrupted entries, across the fallback swap AND the
	// incremental migration. Verified via ForEach, which iterates the
	// buckets without feeding the drift monitor: replaying 4000 retired
	// SSN keys through Get would itself register as another drift.
	if m.Len() != pre+total {
		t.Fatalf("Len = %d, want %d", m.Len(), pre+total)
	}
	got := make(map[string]int, pre+total)
	m.ForEach(func(k string, v int) { got[k] = v })
	if len(got) != pre+total {
		t.Fatalf("ForEach visited %d distinct keys, want %d", len(got), pre+total)
	}
	for i := 0; i < pre; i++ {
		if v, ok := got[ssn(i)]; !ok || v != i {
			t.Fatalf("lost SSN entry: %q = %d,%v", ssn(i), v, ok)
		}
	}
	for i := 0; i < total; i++ {
		if v, ok := got[ipv4(i)]; !ok || v != -i {
			t.Fatalf("lost IPv4 entry: %q = %d,%v", ipv4(i), v, ok)
		}
	}

	// Bucket quality: the healed container's B-Coll must be within 2×
	// of a fresh container built directly with the promoted function
	// over the same keys — the migration re-bucketed for real. The
	// baseline uses the pinned Current() snapshot, not the observing
	// Func() closure, so building it cannot perturb the state machine.
	healed := m.Stats()
	baseline := sepe.NewMap[int](ah.Current())
	for i := 0; i < pre; i++ {
		baseline.Put(ssn(i), i)
	}
	for i := 0; i < total; i++ {
		baseline.Put(ipv4(i), -i)
	}
	base := baseline.Stats()
	t.Logf("healed B-Coll=%d buckets=%d; fresh baseline B-Coll=%d buckets=%d (keys: %d ssn + %d ipv4)",
		healed.BucketCollisions, healed.Buckets, base.BucketCollisions, base.Buckets, pre, total)
	if healed.BucketCollisions > 2*base.BucketCollisions+2 {
		t.Fatalf("healed B-Coll %d exceeds 2× fresh baseline %d",
			healed.BucketCollisions, base.BucketCollisions)
	}
}

// TestAdaptiveEndToEndSecondDrift drives the healed hash through a
// second drift back to the original format, proving the machine
// re-arms after recovery.
func TestAdaptiveEndToEndSecondDrift(t *testing.T) {
	f, err := sepe.ParseRegex(`[a-z]{8}`)
	if err != nil {
		t.Fatal(err)
	}
	ah, err := sepe.NewAdaptiveHash("e2e2", f, sepe.OffXor, sepe.AdaptiveConfig{
		SampleEvery:    1,
		MinKeys:        64,
		InitialBackoff: time.Millisecond,
		Drift:          sepe.DriftConfig{Window: 64, MinSamples: 16},
		Registry:       sepe.NewMetricsRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()

	word := func(i int) string {
		b := make([]byte, 8)
		for j := range b {
			b[j] = 'a' + byte((i>>uint(j*2))%26)
		}
		return string(b)
	}

	for i := 0; i < 500; i++ {
		ah.Hash(word(i))
	}
	drive := func(key func(int) string, wantGen uint64, what string) {
		deadline := time.Now().Add(60 * time.Second)
		i := 0
		for !(ah.State() == sepe.AdaptiveRecovered && ah.Generation() == wantGen) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: state=%v gen=%d metrics=%+v", what, ah.State(), ah.Generation(), ah.Metrics().Snapshot())
			}
			ah.Hash(key(i))
			i++
		}
	}
	drive(func(i int) string { return fmt.Sprintf("%06d", i%1000000) }, 3, "first drift (words→digits)")
	drive(word, 5, "second drift (digits→words)")

	if s := ah.Metrics().Snapshot(); s.ResynthSuccesses != 2 {
		t.Fatalf("successes = %d, want 2", s.ResynthSuccesses)
	}
}
