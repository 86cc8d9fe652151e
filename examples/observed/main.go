// Observed runs an instrumented SSN map under load and serves its
// live metrics over HTTP — the telemetry layer end to end: an
// Instrument-wrapped Pext hash, an Observed map container, and a
// format-drift monitor watching the key stream for the paper's RQ7
// failure mode.
//
//	go run ./examples/observed -dur 30s -offformat 0.2
//	curl localhost:8080/metrics
//	curl localhost:8080/metrics?format=json
//
// With -offformat 0 the stream conforms to the format and the drift
// gauge stays at 0; at 0.2 (the default) one key in five is an email
// address instead of an SSN, the windowed mismatch rate crosses the
// 10% threshold, and sepe_drift_degraded flips to 1 — the signal to
// swap the specialized hash for a general-purpose fallback.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/sepe-go/sepe"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "metrics listen address")
		dur       = flag.Duration("dur", 30*time.Second, "how long to run before exiting")
		offFormat = flag.Float64("offformat", 0.2, "fraction of keys drawn off-format (0..1)")
	)
	flag.Parse()

	format, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		log.Fatal(err)
	}
	hash, err := sepe.Synthesize(format, sepe.Pext)
	if err != nil {
		log.Fatal(err)
	}

	// One metrics block per concern, all in the default registry the
	// HTTP handler serves.
	hm := sepe.Metrics().NewHash("ssn-pext")
	drift := format.DriftMonitor("ssn", sepe.DriftConfig{
		SampleEvery: 1,
		OnDegrade: func(s sepe.DriftSnapshot) {
			fmt.Printf("drift: %.0f%% of sampled keys off-format — "+
				"a specialized hash degenerates on such keys (RQ7); "+
				"consider falling back to sepe.STLHash\n", 100*s.WindowRate)
		},
	})
	sepe.Metrics().Gauge("sepe_example_offformat_fraction", func() float64 { return *offFormat })

	m := sepe.NewMap[int](sepe.Instrument(hash.Func(), hm, drift), sepe.Observed(nil, "ssn-map"))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, sepe.MetricsHandler())
	fmt.Printf("serving metrics on http://%s/ for %v (try ?format=json)\n", ln.Addr(), *dur)

	// Hammer the map until the deadline: mostly conforming SSNs, with
	// the configured fraction of off-format keys mixed in.
	deadline := time.Now().Add(*dur)
	every := 0
	if *offFormat > 0 {
		every = int(1 / *offFormat)
	}
	for i := 0; time.Now().Before(deadline); i++ {
		key := fmt.Sprintf("%03d-%02d-%04d", i%1000, i%100, i%10000)
		if every > 0 && i%every == 0 {
			key = fmt.Sprintf("user-%d@example.com", i)
		}
		m.Put(key, i)
		m.Get(key)
		if i%64 == 0 {
			m.Delete(key)
		}
		if i%100000 == 0 && i > 0 {
			for _, s := range sepe.Metrics().Snapshot().Containers {
				if s.Name == "ssn-map" {
					fmt.Printf("ops=%d buckets_bcoll=%d rehashes=%d degraded=%v\n",
						s.Puts+s.Gets+s.Deletes, s.BucketCollisions, s.Rehashes, drift.Degraded())
				}
			}
		}
		if i%1024 == 0 {
			time.Sleep(time.Millisecond) // leave the scraper some air
		}
	}

	snap := sepe.Metrics().Snapshot()
	fmt.Printf("final: %d hash calls, degraded=%v\n", snap.Hashes[0].Calls, drift.Degraded())
	os.Exit(0)
}
