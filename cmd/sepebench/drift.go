package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
)

// runDriftInject demonstrates the self-healing loop live: it builds an
// adaptive map specialized to one key type, streams conforming keys,
// then switches the stream to a second key type and reports every
// lifecycle transition until the hash recovers (or pins) and the
// incremental migration drains. The spec is "from:to", e.g.
// "ssn:ipv4", using the same key-type names as -keys.
func runDriftInject(spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 2 {
		return fmt.Errorf("drift-inject: want FROM:TO key types, got %q", spec)
	}
	from, err := parseTypes(parts[0])
	if err != nil {
		return fmt.Errorf("drift-inject: %w", err)
	}
	to, err := parseTypes(parts[1])
	if err != nil {
		return fmt.Errorf("drift-inject: %w", err)
	}
	fromT, toT := from[0], to[0]

	format, err := sepe.ParseRegex(fromT.Regex())
	if err != nil {
		return err
	}
	reg := sepe.NewMetricsRegistry()
	ah, err := sepe.NewAdaptiveHash("drift-inject", format, sepe.Pext, sepe.AdaptiveConfig{
		SampleEvery: 1,
		Drift:       sepe.DriftConfig{Window: 256, MinSamples: 64},
		Registry:    reg,
	})
	if err != nil {
		return err
	}
	defer ah.Close()
	m := sepe.NewMap[int](ah)

	fmt.Printf("Drift injection: %s -> %s (format %s)\n\n",
		fromT.Name(), toT.Name(), format.Regex())

	start := time.Now()
	lastState := ah.State()
	report := func(op int, what string) {
		fmt.Printf("  %8s  op %-8d %-14v gen %d  %s\n",
			time.Since(start).Round(time.Millisecond), op, ah.State(), ah.Generation(), what)
	}
	watch := func(op int) {
		if s := ah.State(); s != lastState {
			lastState = s
			report(op, "state transition")
		}
	}

	const warm = 20000
	gen := keys.NewGenerator(fromT, keys.Uniform, 0xD31F7)
	for i := 0; i < warm; i++ {
		m.Put(gen.Next(), i)
		watch(i)
	}
	report(warm, fmt.Sprintf("warmed up with %d %s keys", warm, fromT.Name()))

	inj := keys.NewGenerator(toT, keys.Uniform, 0xD31F8)
	deadline := time.Now().Add(2 * time.Minute)
	op := warm
	for {
		s := ah.State()
		if s == sepe.AdaptiveRecovered || s == sepe.AdaptivePinned {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("drift-inject: no recovery after %v (state %v)", time.Since(start), s)
		}
		m.Put(inj.Next(), op)
		op++
		watch(op)
	}
	// The container checks the hash's generation every few ops; drive a
	// handful more so the promoted function's migration starts, then
	// drain it.
	for i := 0; i < 64 || m.Migrating(); i++ {
		m.Put(inj.Next(), op)
		op++
	}
	report(op, "migration drained")

	snap := ah.Metrics().Snapshot()
	stats := m.Stats()
	fmt.Printf("\nOutcome after %d ops in %v:\n", op, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  final state        %v (generation %d)\n", ah.State(), ah.Generation())
	fmt.Printf("  transitions        %d\n", snap.Transitions)
	fmt.Printf("  resynth attempts   %d (%d failed)\n", snap.ResynthAttempts, snap.ResynthFailures)
	fmt.Printf("  entries            %d in %d buckets, B-Coll %d\n",
		m.Len(), stats.Buckets, stats.BucketCollisions)
	if d := ah.Monitor().Snapshot(); true {
		fmt.Printf("  drift monitor      %d observed, %d off-format lifetime\n",
			d.Observed, d.Mismatched)
	}
	return nil
}
