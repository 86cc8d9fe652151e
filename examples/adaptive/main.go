// Adaptive runs the self-healing loop end to end: a map specialized
// to SSN keys watches its own key stream, and when the stream drifts
// to IPv4 addresses it falls back, re-infers the new format from
// observed keys, synthesizes a fresh specialized hash in the
// background, and migrates its buckets incrementally — no restart, no
// stop-the-world rehash, reads never blocked.
//
//	go run ./examples/adaptive
//
// Every state transition is printed as it happens, and the final
// metrics snapshot shows the lifecycle the telemetry registry exports
// (sepe_adaptive_state et al. on any registry-served endpoint).
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/sepe-go/sepe"
)

func main() {
	format, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		log.Fatal(err)
	}

	// The adaptive hash owns the whole loop: drift detection, fallback,
	// background re-synthesis, promotion. Config tunes the machine; the
	// zero value of each field is a sensible default.
	ah, err := sepe.NewAdaptiveHash("ssn-index", format, sepe.Pext, sepe.AdaptiveConfig{
		SampleEvery: 1, // demo: observe every key so the timeline is short
		Drift: sepe.DriftConfig{
			Window:     256,
			MinSamples: 64,
			OnDegrade: func(s sepe.DriftSnapshot) {
				fmt.Printf("!! drift detected: %.0f%% of the window off-format; "+
					"fallback hash active, re-synthesis starting\n", 100*s.WindowRate)
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ah.Close()

	m := sepe.NewMap[int](ah)

	fmt.Printf("phase 1: SSN traffic against the specialized hash (%s)\n", format.Regex())
	for i := 0; i < 20000; i++ {
		m.Put(fmt.Sprintf("%03d-%02d-%04d", i%1000, i%100, i%10000), i)
	}
	fmt.Printf("   state=%v generation=%d entries=%d\n\n", ah.State(), ah.Generation(), m.Len())

	fmt.Println("phase 2: the stream drifts to IPv4 keys")
	start := time.Now()
	i := 0
	for ah.State() != sepe.AdaptiveRecovered && ah.State() != sepe.AdaptivePinned {
		m.Put(ipv4(i), i)
		i++
	}
	// Keep a little traffic flowing so the container notices the
	// promoted generation and drains its incremental migration.
	for n := 0; n < 64 || m.Migrating(); n++ {
		m.Put(ipv4(i), i)
		i++
	}
	fmt.Printf("   recovered in %v after %d drifted keys\n", time.Since(start).Round(time.Millisecond), i)
	fmt.Printf("   state=%v generation=%d entries=%d\n\n", ah.State(), ah.Generation(), m.Len())

	s := ah.Metrics().Snapshot()
	fmt.Println("lifecycle exported by the registry:")
	fmt.Printf("   transitions=%d resynth: %d attempts, %d successes, %d failures\n",
		s.Transitions, s.ResynthAttempts, s.ResynthSuccesses, s.ResynthFailures)
	d := ah.Monitor().Snapshot()
	fmt.Printf("   drift monitor: %d keys observed, %d off-format over the run\n",
		d.Observed, d.Mismatched)
}

// ipv4 spreads i over all four octets so a contiguous run of i
// exercises every digit position.
func ipv4(i int) string {
	h := uint32(i) * 2654435761
	return fmt.Sprintf("%03d.%03d.%03d.%03d", h&255, (h>>8)&255, (h>>16)&255, (h>>24)&255)
}
