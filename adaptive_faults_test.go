// Fault test of the keyed self-healing deployment: three seeded
// adaptive tenants share one phased load while one tenant's key format
// drifts and another is flooded with keys mined against the unseeded
// function. Every lookup is checked against a shadow map, so the test
// shows the heal and the flood lose no entry, not only that the
// lifecycle reached the right state.
package sepe_test

import (
	"math"
	"testing"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/flood"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/rng"
)

// faultTenant is one workload: a seeded adaptive hash, the map built
// on it, a churning working set of keys, and a shadow holding the last
// value Put under every key.
type faultTenant struct {
	name   string
	ah     *sepe.AdaptiveHash
	m      *sepe.Map[int]
	gen    *keys.Generator
	work   []string
	r      *rng.Rand
	shadow map[string]int
}

func newFaultTenant(t *testing.T, name string, typ keys.Type, seedVal uint64) *faultTenant {
	t.Helper()
	gen := keys.NewGenerator(typ, keys.Uniform, seedVal)
	f, err := sepe.Infer(gen.Distinct(512))
	if err != nil {
		t.Fatalf("%s: Infer: %v", name, err)
	}
	ah, err := sepe.NewSeededAdaptiveHash(name, f, sepe.Pext, sepe.AdaptiveConfig{
		SampleEvery:    1,
		MinKeys:        64,
		MaxAttempts:    6,
		InitialBackoff: time.Millisecond,
		AttemptTimeout: 30 * time.Second,
		Drift:          sepe.DriftConfig{Window: 128, MinSamples: 32},
		Registry:       sepe.NewMetricsRegistry(),
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	t.Cleanup(ah.Close)
	return &faultTenant{
		name:   name,
		ah:     ah,
		m:      sepe.NewMap[int](ah),
		gen:    gen,
		work:   gen.Distinct(4096),
		r:      rng.New(seedVal ^ 0x7E4A47),
		shadow: map[string]int{},
	}
}

// switchTo replaces the working set with keys of another format, for
// good: the tenant sees only the new format from then on.
func (tn *faultTenant) switchTo(typ keys.Type, seedVal uint64) {
	tn.gen = keys.NewGenerator(typ, keys.Uniform, seedVal)
	tn.work = tn.gen.Distinct(len(tn.work))
}

// nextKey picks uniformly from the working set; about one draw in 512
// first retires a slot for a fresh key.
func (tn *faultTenant) nextKey() string {
	if tn.r.Intn(512) == 0 {
		tn.work[tn.r.Intn(len(tn.work))] = tn.gen.Next()
	}
	return tn.work[tn.r.Intn(len(tn.work))]
}

// step runs a Put (7 in 10) or a Get of k and checks a Get against
// the shadow: same found flag, same value.
func (tn *faultTenant) step(t *testing.T, k string, op int) {
	t.Helper()
	if tn.r.Intn(10) < 7 {
		tn.m.Put(k, op)
		tn.shadow[k] = op
		return
	}
	got, ok := tn.m.Get(k)
	if want, wantOK := tn.shadow[k]; ok != wantOK || got != want {
		t.Fatalf("%s op %d: Get(%q) = %d, %v; want %d, %v (state %v)",
			tn.name, op, k, got, ok, want, wantOK, tn.ah.State())
	}
}

// checkEntries looks up every shadow key and compares the map's size
// to the shadow's.
func (tn *faultTenant) checkEntries(t *testing.T) {
	t.Helper()
	lost := 0
	for k, want := range tn.shadow {
		if got, ok := tn.m.Get(k); !ok || got != want {
			lost++
		}
	}
	if n := tn.m.Len(); lost != 0 || n != len(tn.shadow) {
		t.Errorf("%s: %d of %d entries lost or wrong, Len() = %d", tn.name, lost, len(tn.shadow), n)
	}
}

// TestAdaptiveTenantsUnderFaults drives a URL1 control tenant, an IPv4
// tenant whose stream drifts to MAC keys, and an SSN tenant that is
// flooded, round-robin through warm, steady, drift, flood and cooldown
// phases (120,000 ops). The flood is mined offline against the
// unseeded Pext function for SSN: the attacker knows the format, not
// the seed. It checks that
//
//   - no entry is lost: every Get matches the shadow, and afterwards
//     every shadow key is found with Len() equal to the shadow's size;
//   - the drifted tenant recovers, by a 60 s deadline if the phases end
//     first, through exactly one re-synthesis, under a new seed;
//   - the attack bites the unseeded function (B-Coll at least its size
//     minus the target buckets) and scores within 4σ of a random oracle
//     against the seeded tenant.
func TestAdaptiveTenantsUnderFaults(t *testing.T) {
	const seedVal = 1
	phases := []struct {
		name string
		ops  int
	}{
		{"warm", 12000},
		{"steady", 36000},
		{"drift", 24000},
		{"flood", 30000},
		{"cooldown", 18000},
	}
	ctl := newFaultTenant(t, "ctl-url1", keys.URL1, seedVal)
	drift := newFaultTenant(t, "drift-ipv4", keys.IPv4, seedVal+0x9E37)
	fl := newFaultTenant(t, "flood-ssn", keys.SSN, seedVal+2*0x9E37)
	tenants := []*faultTenant{ctl, drift, fl}

	samples := keys.NewGenerator(keys.SSN, keys.Uniform, seedVal).Distinct(512)
	af, err := sepe.Infer(samples)
	if err != nil {
		t.Fatal(err)
	}
	unseeded, err := sepe.Synthesize(af, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	miner, err := flood.NewMiner(unseeded.Func(), af.Matches, samples)
	if err != nil {
		t.Fatalf("NewMiner: %v", err)
	}
	attack := miner.MineBuckets(flood.Buckets, flood.Targets, flood.Keys, flood.Budget)
	if len(attack) < 256 {
		t.Fatalf("mined only %d attack keys", len(attack))
	}
	unseededBColl := flood.BColl(flood.Hashes(unseeded.Func(), attack), flood.Buckets)
	if unseededBColl < len(attack)-flood.Targets {
		t.Fatalf("unseeded B-Coll = %d, want >= %d: the attack does not bite",
			unseededBColl, len(attack)-flood.Targets)
	}

	seedGen := sepe.ServingSeedGen(drift.ah)
	if seedGen == 0 {
		t.Fatal("drift tenant starts without a seed")
	}
	op, attackAt := 0, 0
	for _, ph := range phases {
		if ph.name == "drift" {
			drift.switchTo(keys.MAC, seedVal^0xD21F7)
		}
		for i := 0; i < ph.ops; i++ {
			tn := tenants[op%len(tenants)]
			var k string
			if tn == fl && ph.name == "flood" && tn.r.Intn(2) == 0 {
				k = attack[attackAt%len(attack)]
				attackAt++
			} else {
				k = tn.nextKey()
			}
			tn.step(t, k, op)
			op++
		}
	}

	// The op budget does not bound recovery: a slow host or -race only
	// stretches it, so the drifted tenant keeps its stream until the
	// deadline.
	phaseOps := op
	deadline := time.Now().Add(60 * time.Second)
	for st := drift.ah.State(); st != sepe.AdaptiveRecovered; st = drift.ah.State() {
		if st == sepe.AdaptivePinned || time.Now().After(deadline) {
			t.Fatalf("drift tenant did not recover: state %v after %d ops, %+v",
				st, op, drift.ah.Metrics().Snapshot())
		}
		drift.step(t, drift.nextKey(), op)
		op++
	}
	if s := drift.ah.Metrics().Snapshot(); s.ResynthSuccesses != 1 {
		t.Errorf("drift tenant healed %d times, want 1: %+v", s.ResynthSuccesses, s)
	}
	if g := sepe.ServingSeedGen(drift.ah); g == 0 || g == seedGen {
		t.Errorf("recovery did not rotate the seed: generation %d, was %d", g, seedGen)
	}

	// A single-seed observation gets a wider gate than the 5-seed mean
	// of TestFloodResistance. For a random oracle 4σ would be about a
	// 1e-4 false alarm; about 0.8% of fresh seeds exceed it, because the
	// attack still crowds them (DESIGN.md §11.3).
	seededBColl := flood.BColl(flood.Hashes(fl.ah.Current(), attack), flood.Buckets)
	mu, sigma := flood.OracleBColl(len(attack), flood.Buckets, flood.OracleTrials, seedVal|1)
	z := math.Abs(float64(seededBColl)-mu) / floodSigma(sigma)
	if z > 4 {
		t.Errorf("seeded flood tenant: attack B-Coll %d vs oracle %.1f±%.1f (z=%.2f): attack retains leverage",
			seededBColl, mu, sigma, z)
	}

	for _, tn := range tenants {
		tn.checkEntries(t)
	}
	t.Logf("%d ops (%d past the phases); attack B-Coll unseeded %d, seeded %d, oracle %.1f±%.1f, z %.2f",
		op, op-phaseOps, unseededBColl, seededBColl, mu, sigma, z)
}
