// Tests of the public self-healing API: NewAdaptiveHash and the
// adaptive containers. The end-to-end drift→recover loop with real
// re-synthesis lives in adaptive_integration_test.go; these tests use
// injected synthesizers for speed and determinism.
package sepe_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sepe-go/sepe"
)

func ssn(i int) string { return fmt.Sprintf("%03d-%02d-%04d", i%1000, i%100, i%10000) }

// ipv4 spreads i over all four octets (Knuth multiplicative hash) so
// that even a small sample of consecutive i exercises every digit
// position's full range — re-inference from a key reservoir then
// generalizes to the whole stream.
func ipv4(i int) string {
	h := uint32(i) * 2654435761
	return fmt.Sprintf("%03d.%03d.%03d.%03d", h&255, (h>>8)&255, (h>>16)&255, (h>>24)&255)
}

// fastAdaptiveCfg observes every call with tiny windows, so tests
// drive the state machine in microseconds.
func fastAdaptiveCfg() sepe.AdaptiveConfig {
	return sepe.AdaptiveConfig{
		SampleEvery:    1,
		MinKeys:        16,
		MaxAttempts:    3,
		InitialBackoff: time.Millisecond,
		AttemptTimeout: 5 * time.Second,
		Drift:          sepe.DriftConfig{Window: 32, MinSamples: 8},
		Registry:       sepe.NewMetricsRegistry(),
	}
}

func waitState(t *testing.T, step func(), cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		step()
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdaptiveHashHealthyPathMatchesSynthesized(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	ah, err := sepe.NewAdaptiveHash("ssn", f, sepe.Pext, fastAdaptiveCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()

	for i := 0; i < 1000; i++ {
		if got, want := ah.Hash(ssn(i)), plain.Hash(ssn(i)); got != want {
			t.Fatalf("adaptive hash(%q) = %#x, want %#x", ssn(i), got, want)
		}
	}
	if ah.State() != sepe.AdaptiveSpecialized || ah.Generation() != 1 {
		t.Fatalf("state=%v gen=%d after conforming stream", ah.State(), ah.Generation())
	}
}

func TestAdaptiveHashNilFormat(t *testing.T) {
	if _, err := sepe.NewAdaptiveHash("x", nil, sepe.Pext, sepe.AdaptiveConfig{}); err == nil {
		t.Fatal("nil format accepted")
	}
}

func TestAdaptiveMapSurvivesDriftWithInjectedSynthesizer(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	ipFormat, err := sepe.ParseRegex(`[0-9]{3}\.[0-9]{3}\.[0-9]{3}\.[0-9]{3}`)
	if err != nil {
		t.Fatal(err)
	}
	ipHash, err := sepe.Synthesize(ipFormat, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastAdaptiveCfg()
	cfg.Synthesize = func(context.Context, []string) (sepe.AdaptiveFunction, error) {
		return ipHash, nil
	}
	ah, err := sepe.NewAdaptiveHash("ssn", f, sepe.Pext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()

	m := sepe.NewMap[int](ah)
	const pre = 2000
	for i := 0; i < pre; i++ {
		m.Put(ssn(i), i)
	}

	// The stream drifts to IPv4 keys: detection → fallback →
	// promotion of the injected candidate.
	i := 0
	waitState(t, func() {
		m.Put(ipv4(i), -i)
		i++
	}, func() bool { return ah.State() == sepe.AdaptiveRecovered }, "recovery")
	// Drive the incremental migration to completion with ordinary
	// on-format operations; no explicit migration call exists on the
	// public type. The first iterations run unconditionally so the
	// container's periodic generation check notices the swap and the
	// migration actually starts.
	for n := 0; n < 64 || m.Migrating(); n++ {
		m.Put(ipv4(i), -i)
		i++
		if n > 100000 {
			t.Fatal("migration never completed")
		}
	}
	post := i

	// No lost or corrupted entries across two generations of buckets.
	// ForEach iterates without observing, so reading back the retired
	// SSN keys cannot re-trigger drift detection.
	got := make(map[string]int, pre+post)
	m.ForEach(func(k string, v int) { got[k] = v })
	for j := 0; j < pre; j++ {
		if v, ok := got[ssn(j)]; !ok || v != j {
			t.Fatalf("post-recovery %q = %d,%v", ssn(j), v, ok)
		}
	}
	for j := 0; j < post; j++ {
		if v, ok := got[ipv4(j)]; !ok || v != -j {
			t.Fatalf("post-recovery %q = %d,%v", ipv4(j), v, ok)
		}
	}
	if m.Len() != pre+post || len(got) != pre+post {
		t.Fatalf("Len = %d distinct = %d, want %d", m.Len(), len(got), pre+post)
	}
}

func TestAdaptiveSetAndMultiShapes(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	ah, err := sepe.NewAdaptiveHash("shapes", f, sepe.OffXor, fastAdaptiveCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()

	s := sepe.NewSet(ah)
	mm := sepe.NewMultiMap[string](ah)
	ms := sepe.NewMultiSet(ah)
	for i := 0; i < 500; i++ {
		s.Add(ssn(i))
		mm.Put(ssn(i%50), fmt.Sprint(i))
		ms.Add(ssn(i % 50))
	}
	if s.Len() != 500 {
		t.Fatalf("set Len = %d", s.Len())
	}
	if !s.Has(ssn(123)) || s.Has("nope") {
		t.Fatal("set membership wrong")
	}
	if got := mm.Count(ssn(7)); got != 10 {
		t.Fatalf("multimap Count = %d, want 10", got)
	}
	if got := ms.Count(ssn(7)); got != 10 {
		t.Fatalf("multiset Count = %d, want 10", got)
	}
	if got := len(mm.GetAll(ssn(7))); got != 10 {
		t.Fatalf("multimap GetAll = %d values, want 10", got)
	}
}

func TestAdaptiveMetricsExported(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	reg := sepe.NewMetricsRegistry()
	cfg := fastAdaptiveCfg()
	cfg.Registry = reg
	ah, err := sepe.NewAdaptiveHash("exported", f, sepe.Pext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()
	for i := 0; i < 100; i++ {
		ah.Hash(ssn(i))
	}
	snap := reg.Snapshot()
	if len(snap.Adaptive) != 1 || snap.Adaptive[0].Name != "exported" {
		t.Fatalf("registry adaptive snapshot = %+v", snap.Adaptive)
	}
	if snap.Adaptive[0].StateName != "Specialized" {
		t.Fatalf("state name = %q", snap.Adaptive[0].StateName)
	}
	if len(snap.Drift) != 1 || snap.Drift[0].Observed == 0 {
		t.Fatalf("drift snapshot = %+v", snap.Drift)
	}
}

func TestBijectiveMapRejectsOffFormatKeys(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	pext, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sepe.NewBijectiveMap[int](pext)
	if err != nil {
		t.Fatal(err)
	}
	if isNew, err := m.Put("078-05-1120", 1); err != nil || !isNew {
		t.Fatalf("on-format Put = %v,%v", isNew, err)
	}
	// Off-format keys — wrong length, wrong separators, empty — are
	// refused rather than risking a hash alias against a real entry.
	for _, bad := range []string{"", "078051120", "078-05-112", "07a-05-1120", "078 05 1120", "078-05-11200"} {
		if _, err := m.Put(bad, 9); err != sepe.ErrOffFormat {
			t.Fatalf("Put(%q) err = %v, want ErrOffFormat", bad, err)
		}
		if _, ok := m.Get(bad); ok {
			t.Fatalf("Get(%q) hit", bad)
		}
		if m.Delete(bad) {
			t.Fatalf("Delete(%q) removed something", bad)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after rejected operations", m.Len())
	}
	if v, ok := m.Get("078-05-1120"); !ok || v != 1 {
		t.Fatalf("surviving entry = %d,%v", v, ok)
	}
}

// TestAdaptiveShardedSwapPickup pins how soon a sharded adaptive map
// notices a generation swap. The map counts operations per stripe, so
// a check paced off those counts alone would leave the swap unseen for
// up to a pace's worth of operations on every stripe; instead every
// operation compares the generation, and the migration must begin on
// the first operation after the swap, whether the keys spread over all
// stripes or all route to one. Each stripe is filled with a multiple
// of adaptiveObserveEvery (64) keys, so no stripe's own count is due
// when the swap lands. Two goroutines then finish the migration, and
// no entry may be lost.
func TestAdaptiveShardedSwapPickup(t *testing.T) {
	const shards, perStripe = 8, 64
	for _, tc := range []struct {
		name    string
		stripes int // the keys route to stripes 0 … stripes-1
	}{
		{"spread", shards},
		{"one-stripe", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fastAdaptiveCfg()
			// Re-synthesis never finishes, so forcing drift swaps the
			// generation exactly once, to the fallback.
			cfg.Synthesize = func(ctx context.Context, _ []string) (sepe.AdaptiveFunction, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			// Aes spreads the routing bits evenly over the stripes.
			ah, err := sepe.NewAdaptiveHash("pickup", f, sepe.Aes, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ah.Close()
			route := ah.Current()
			m := sepe.NewMap[int](ah, sepe.Sharded(shards))

			byStripe := make([][]string, tc.stripes)
			want := map[string]int{}
			for i, full := 0, 0; full < tc.stripes; i++ {
				k := ssn(i)
				s := int(route(k) >> (64 - 3))
				if s >= tc.stripes || len(byStripe[s]) == perStripe {
					continue
				}
				byStripe[s] = append(byStripe[s], k)
				if len(byStripe[s]) == perStripe {
					full++
				}
				m.Put(k, i)
				want[k] = i
			}
			if m.Migrating() {
				t.Fatal("migrating before the swap")
			}
			forceDrift(ah)
			if ah.Generation() != 2 {
				t.Fatalf("generation %d after forced drift, want 2", ah.Generation())
			}

			k := byStripe[tc.stripes-1][0]
			if v, ok := m.Get(k); !ok || v != want[k] {
				t.Fatalf("Get(%q) = %d, %v across the swap, want %d", k, v, ok, want[k])
			}
			if !m.Migrating() {
				t.Fatal("no migration after the first operation since the swap")
			}

			var wg sync.WaitGroup
			added := make([]map[string]int, 2)
			for g := range added {
				added[g] = map[string]int{}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; m.Migrating(); i++ {
						if i == 1000000 {
							t.Errorf("goroutine %d: migration unfinished after %d operations", g, i)
							return
						}
						k := fmt.Sprintf("g%d-%d", g, i)
						m.Put(k, -i)
						added[g][k] = -i
						old := byStripe[i%tc.stripes][(i/tc.stripes)%perStripe]
						if v, ok := m.Get(old); !ok || v != want[old] {
							t.Errorf("mid-migration Get(%q) = %d, %v, want %d", old, v, ok, want[old])
							return
						}
					}
				}()
			}
			wg.Wait()
			for _, a := range added {
				for k, v := range a {
					want[k] = v
				}
			}
			for k, v := range want {
				if got, ok := m.Get(k); !ok || got != v {
					t.Fatalf("after the migration Get(%q) = %d, %v, want %d", k, got, ok, v)
				}
			}
			if m.Len() != len(want) {
				t.Fatalf("Len %d after the migration, want %d", m.Len(), len(want))
			}
		})
	}
}
