// Tests of the keyed (seeded) synthesis surface: determinism per
// seed, variation across seeds, preservation of the structural
// properties the certifier proves (bijectivity, inversion), redaction
// of the seed itself, and seed rotation through the adaptive
// lifecycle under concurrency.
package sepe_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
)

func seededPair(t *testing.T, fam sepe.Family, v uint64) (*sepe.Hash, *sepe.Hash) {
	t.Helper()
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sepe.Synthesize(f, fam, sepe.WithSeed(sepe.SeedFromUint64(v)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sepe.Synthesize(f, fam, sepe.WithSeed(sepe.SeedFromUint64(v)))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSeededDeterminismAndVariation(t *testing.T) {
	for _, fam := range []sepe.Family{sepe.Naive, sepe.OffXor, sepe.Aes, sepe.Pext} {
		fam := fam
		t.Run(fam.String(), func(t *testing.T) {
			same1, same2 := seededPair(t, fam, 0xD15EA5E)
			other, _ := seededPair(t, fam, 0x0DDBA11)
			unseeded, err := sepe.Synthesize(other.Format(), fam)
			if err != nil {
				t.Fatal(err)
			}
			differs, unseededDiffers := false, false
			for i := 0; i < 256; i++ {
				k := ssn(i * 37)
				if same1.Hash(k) != same2.Hash(k) {
					t.Fatalf("same seed, different hash for %q", k)
				}
				if same1.Hash(k) != other.Hash(k) {
					differs = true
				}
				if same1.Hash(k) != unseeded.Hash(k) {
					unseededDiffers = true
				}
			}
			if !differs {
				t.Fatal("two distinct seeds produced identical functions")
			}
			if !unseededDiffers {
				t.Fatal("seeded function is identical to the unseeded one")
			}
			if !same1.Seeded() || unseeded.Seeded() {
				t.Fatal("Seeded() accessor disagrees with construction")
			}
		})
	}
}

func TestSeededPreservesCollisionStructure(t *testing.T) {
	// The linear families' post-mix is a bijection of the unseeded
	// output: two keys collide seeded iff they collide unseeded, so
	// seeding can neither create collisions nor (for true collisions)
	// remove them — the residual risk DESIGN.md §11 documents.
	f, err := sepe.Infer(keys.NewGenerator(keys.IPv6, keys.Uniform, 3).Distinct(256))
	if err != nil {
		t.Fatal(err)
	}
	base, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sepe.Synthesize(f, sepe.Pext, sepe.WithSeed(sepe.SeedFromUint64(99)))
	if err != nil {
		t.Fatal(err)
	}
	gen := keys.NewGenerator(keys.IPv6, keys.Uniform, 4)
	ks := gen.Distinct(512)
	for i := 0; i < len(ks); i++ {
		for j := i + 1; j < i+4 && j < len(ks); j++ {
			bu := base.Hash(ks[i]) == base.Hash(ks[j])
			se := sh.Hash(ks[i]) == sh.Hash(ks[j])
			if bu != se {
				t.Fatalf("collision structure changed for %q/%q: unseeded=%v seeded=%v",
					ks[i], ks[j], bu, se)
			}
		}
	}
}

func TestSeededInvertRoundTrip(t *testing.T) {
	a, _ := seededPair(t, sepe.Pext, 0xBEEF)
	if !a.Bijective() {
		t.Skip("SSN/Pext not bijective on this target")
	}
	for i := 0; i < 128; i++ {
		k := ssn(i * 101)
		h := a.Hash(k)
		got, ok := a.Invert(h)
		if !ok || got != k {
			t.Fatalf("Invert(%#x) = %q, %v; want %q", h, got, ok, k)
		}
	}
	// Values outside the image must be rejected, same as unseeded.
	rejected := 0
	for v := uint64(0); v < 64; v++ {
		if _, ok := a.Invert(v * 0x9E3779B97F4A7C15); !ok {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("Invert accepted every probe value; image check lost under seeding")
	}
}

func TestSeededCertificateMetadata(t *testing.T) {
	a, _ := seededPair(t, sepe.Pext, 0xFACE)
	cert := a.Certificate()
	if !cert.Seeded || cert.MixerRank != 64 {
		t.Fatalf("cert Seeded=%v MixerRank=%d", cert.Seeded, cert.MixerRank)
	}
	if cert.SeedGen != a.SeedGeneration() {
		t.Fatalf("cert SeedGen=%d, hash SeedGeneration=%d", cert.SeedGen, a.SeedGeneration())
	}
	un, err := sepe.Synthesize(a.Format(), sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	uc := un.Certificate()
	if uc.Seeded || uc.MixerRank != 0 || uc.SeedGen != 0 {
		t.Fatalf("unseeded cert carries seed metadata: %+v", uc)
	}
}

func TestZeroSeedIsUnkeyed(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sepe.Synthesize(f, sepe.Pext, sepe.WithSeed(sepe.Seed{}))
	if err != nil {
		t.Fatal(err)
	}
	if h.Seeded() {
		t.Fatal("zero Seed must be an unkeyed no-op")
	}
}

func TestNewSeededHashAndAll(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sepe.NewSeededHash(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Seeded() || h.SeedGeneration() == 0 {
		t.Fatalf("NewSeededHash: Seeded=%v gen=%d", h.Seeded(), h.SeedGeneration())
	}
	all, err := sepe.NewSeededAll(f)
	if err != nil {
		t.Fatal(err)
	}
	gen := uint64(0)
	for fam, ah := range all {
		if !ah.Seeded() {
			t.Fatalf("%v not seeded", fam)
		}
		if gen == 0 {
			gen = ah.SeedGeneration()
		} else if ah.SeedGeneration() != gen {
			t.Fatalf("NewSeededAll families disagree on seed generation: %d vs %d",
				ah.SeedGeneration(), gen)
		}
	}
}

func TestSeedRedaction(t *testing.T) {
	s := sepe.SeedFromUint64(0x5EC12E7)
	for _, got := range []string{s.String(), fmt.Sprint(s), fmt.Sprintf("%v", s), fmt.Sprintf("%+v", s)} {
		if strings.Contains(got, "5EC12E7") || strings.Contains(got, "5ec12e7") {
			t.Fatalf("seed material leaked through formatting: %q", got)
		}
		if !strings.Contains(got, "redacted") {
			t.Fatalf("seed String not redacted: %q", got)
		}
	}
	if got := (sepe.Seed{}).String(); !strings.Contains(got, "zero") {
		t.Fatalf("zero seed String = %q", got)
	}
}

// TestSeededAdaptiveRotation drives the full drift→recover lifecycle
// with seeded synthesis: recovery must promote a hash built under a
// freshly rotated seed, without stopping the world. Two independent
// instances over the same format must also disagree (per-process
// keying), which is the property that makes precomputed flood sets
// non-transferable between deployments.
func TestSeededAdaptiveRotation(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *sepe.AdaptiveHash {
		ah, err := sepe.NewSeededAdaptiveHash(name, f, sepe.Pext, sepe.AdaptiveConfig{
			SampleEvery:    1,
			MinKeys:        64,
			MaxAttempts:    4,
			InitialBackoff: time.Millisecond,
			AttemptTimeout: 30 * time.Second,
			Drift:          sepe.DriftConfig{Window: 64, MinSamples: 16},
			Registry:       sepe.NewMetricsRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return ah
	}
	a, b := mk("rot-a"), mk("rot-b")
	defer a.Close()
	defer b.Close()

	differs := false
	for i := 0; i < 64 && !differs; i++ {
		differs = a.Hash(ssn(i)) != b.Hash(ssn(i))
	}
	if !differs {
		t.Fatal("two seeded adaptive instances share a key schedule")
	}

	for i := 0; i < 2000; i++ {
		a.Hash(ssn(i))
	}
	seedGen := sepe.ServingSeedGen(a)
	if seedGen == 0 {
		t.Fatal("seeded adaptive hash serves an unseeded function")
	}
	i := 0
	deadline := time.Now().Add(60 * time.Second)
	for a.State() != sepe.AdaptiveRecovered {
		if time.Now().After(deadline) {
			t.Fatalf("no recovery; state=%v", a.State())
		}
		a.Hash(ipv4(i))
		i++
	}
	if s := a.Metrics().Snapshot(); s.ResynthSuccesses < 1 {
		t.Fatalf("recovery without resynthesis: %+v", s)
	}
	if g := sepe.ServingSeedGen(a); g == 0 || g == seedGen {
		t.Fatalf("recovery did not rotate the seed: generation %d, was %d", g, seedGen)
	}
}

// TestSeededRotationRace hammers a seeded adaptive hash from many
// goroutines while the lifecycle degrades and recovers underneath
// them — the hot-swap of a freshly keyed function must be clean under
// the race detector (this test earns its keep in `make check`'s
// -race pass).
func TestSeededRotationRace(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	ah, err := sepe.NewSeededAdaptiveHash("race", f, sepe.Pext, sepe.AdaptiveConfig{
		SampleEvery:    1,
		MinKeys:        64,
		MaxAttempts:    4,
		InitialBackoff: time.Millisecond,
		AttemptTimeout: 30 * time.Second,
		Drift:          sepe.DriftConfig{Window: 64, MinSamples: 16},
		Registry:       sepe.NewMetricsRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch := make([]uint64, 8)
			ks := make([]string, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ah.Hash(ssn(g*100000 + i))
				for j := range ks {
					ks[j] = ssn(g*100000 + i + j)
				}
				ah.Func()(ks[0])
				_ = batch
			}
		}(g)
	}

	// Drive one full degrade→recover cycle (a seed rotation) under load.
	// The recovery is latched when seen: the workers keep hashing
	// until they are stopped, and their traffic can open a new drift
	// episode after the recovery, so a state read after wg.Wait may
	// already be Degraded or Resynthesizing again.
	i := 0
	deadline := time.Now().Add(60 * time.Second)
	recovered := false
	for !recovered && time.Now().Before(deadline) {
		ah.Hash(ipv4(i))
		i++
		recovered = ah.State() == sepe.AdaptiveRecovered
	}
	close(stop)
	wg.Wait()
	if !recovered {
		t.Fatalf("no recovery under load; state=%v", ah.State())
	}
	if s := ah.Metrics().Snapshot(); s.ResynthSuccesses < 1 {
		t.Fatalf("recovery without resynthesis: %+v", s)
	}
}
