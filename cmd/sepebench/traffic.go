package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/flood"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/rng"
)

// The -traffic experiment: a fault-injecting production traffic
// simulator. Three tenants with different key formats run seeded
// adaptive hashes behind adaptive containers, under a phased load:
//
//	warm     — populate, synthesize, settle
//	steady   — baseline latency percentiles per tenant
//	drift    — one tenant's stream is switched to a different format
//	           (the injected fault); its hash must walk the
//	           degrade → fallback → resynthesize → promote lifecycle,
//	           rotating its seed on the way, while traffic continues
//	flood    — another tenant is fed a mined hash-flood key set built
//	           offline against the UNSEEDED function for its format
//	           (the attacker knows the format, not the seed); the
//	           seeded deployment must shrug it off while an unseeded
//	           control table degrades
//	cooldown — normal traffic; everything must have healed
//
// The simulator records per-tenant, per-phase latency percentiles,
// the drift tenant's time-to-recover, the flood key set's B-Coll
// against the live seeded hash vs a random oracle, and fails (exit 1)
// if recovery never happens, entries are lost, or the flood keys
// retain leverage against the seeded deployment.
type trafficReport struct {
	Description string          `json:"description"`
	Command     string          `json:"command"`
	Date        string          `json:"date"`
	Ops         int             `json:"ops"`
	Seed        uint64          `json:"seed"`
	Phases      []trafficPhase  `json:"phases"`
	Tenants     []trafficTenant `json:"tenants"`
	Summary     trafficSummary  `json:"summary"`
}

type trafficPhase struct {
	Name string `json:"name"`
	Ops  int    `json:"ops"`
}

type latencyStats struct {
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	MaxNs  float64 `json:"max_ns"`
}

type trafficTenant struct {
	Name      string                  `json:"name"`
	Format    string                  `json:"format"`
	Role      string                  `json:"role"` // control | drift | flood
	Ops       int                     `json:"ops"`
	Entries   int                     `json:"entries"`
	Latencies map[string]latencyStats `json:"latencies"`

	// Drift-tenant lifecycle timings (ops are simulator steps).
	DegradedAtOp  int     `json:"degraded_at_op,omitempty"`
	RecoveredAtOp int     `json:"recovered_at_op,omitempty"`
	RecoveryOps   int     `json:"recovery_ops,omitempty"`
	RecoveryMs    float64 `json:"recovery_ms,omitempty"`
	Recovered     bool    `json:"recovered,omitempty"`

	// Flood-tenant attack outcome.
	AttackKeys      int     `json:"attack_keys,omitempty"`
	SeededBColl     int     `json:"seeded_bcoll,omitempty"`
	UnseededBColl   int     `json:"unseeded_bcoll,omitempty"`
	OracleMu        float64 `json:"oracle_mu,omitempty"`
	OracleSigma     float64 `json:"oracle_sigma,omitempty"`
	Z               float64 `json:"z,omitempty"`
	UnseededCtlP99  float64 `json:"unseeded_control_p99_ns,omitempty"`
	FloodP99Penalty float64 `json:"flood_p99_penalty,omitempty"`
}

type trafficSummary struct {
	Recovered     bool    `json:"recovered"`
	FloodDefeated bool    `json:"flood_defeated"`
	LostEntries   int     `json:"lost_entries"`
	MaxZ          float64 `json:"max_z"`
	OK            bool    `json:"ok"`
}

// percentiles computes the latency stats of a sample set (ns).
func percentiles(ns []float64) latencyStats {
	if len(ns) == 0 {
		return latencyStats{}
	}
	s := append([]float64(nil), ns...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return latencyStats{
		P50Ns:  at(0.50),
		P99Ns:  at(0.99),
		P999Ns: at(0.999),
		MaxNs:  s[len(s)-1],
	}
}

// zipfPicker draws indices over [0, n) with a Zipf-like hot-key skew
// via a precomputed harmonic CDF (internal/rng has no Zipf; binary
// search over the CDF is deterministic and allocation-free per draw).
type zipfPicker struct {
	cdf []float64
	r   *rng.Rand
}

func newZipfPicker(n int, alpha float64, r *rng.Rand) *zipfPicker {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfPicker{cdf: cdf, r: r}
}

func (z *zipfPicker) pick() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// tenant is one simulated workload: a seeded adaptive hash, its
// container, and a churning Zipf-skewed key working set.
type tenant struct {
	name string
	role string
	typ  keys.Type
	ah   *sepe.AdaptiveHash
	m    *sepe.Map[int]
	gen  *keys.Generator
	zipf *zipfPicker
	work []string
	r    *rng.Rand

	ops  int
	lats map[string][]float64

	// fault-injection streams
	driftGen *keys.Generator
	attack   []string
	attackAt int

	degradedAt, recoveredAt int
	degradeT                time.Time
	recoveryMs              float64
}

func newTenant(name, role string, typ keys.Type, seedVal uint64) (*tenant, error) {
	gen := keys.NewGenerator(typ, keys.Uniform, seedVal)
	samples := gen.Distinct(512)
	f, err := sepe.Infer(samples)
	if err != nil {
		return nil, fmt.Errorf("tenant %s: infer: %w", name, err)
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
		return nil, fmt.Errorf("tenant %s: %w", name, err)
	}
	r := rng.New(seedVal ^ 0x7E4A47)
	t := &tenant{
		name: name,
		role: role,
		typ:  typ,
		ah:   ah,
		m:    sepe.NewMap[int](ah),
		gen:  gen,
		zipf: newZipfPicker(4096, 1.07, r),
		work: gen.Distinct(4096),
		r:    r,
		lats: map[string][]float64{},
	}
	return t, nil
}

// nextKey draws the tenant's next key: Zipf-skewed over the working
// set with slow churn, overridden by the fault-injection streams when
// the phase calls for them.
func (t *tenant) nextKey(phase string) string {
	// Key churn: ~1/512 ops retire a working-set slot for a fresh key.
	if t.r.Intn(512) == 0 {
		t.work[t.r.Intn(len(t.work))] = t.gen.Next()
	}
	switch {
	case t.role == "drift" && (phase == "drift" || phase == "cooldown"):
		// The injected fault: the stream switches format entirely. The
		// adaptive hash must degrade, re-infer, and recover — and it
		// keeps seeing only the new format through cooldown.
		return t.driftGen.Next()
	case t.role == "flood" && phase == "flood" && t.r.Intn(2) == 0:
		// Half the flood-phase stream is the attacker's mined key set.
		k := t.attack[t.attackAt%len(t.attack)]
		t.attackAt++
		return k
	default:
		return t.work[t.zipf.pick()]
	}
}

// step runs one simulated operation (a Put or a Get, 70/30) and
// records its latency under the phase label.
func (t *tenant) step(phase string, op int) {
	k := t.nextKey(phase)
	start := time.Now()
	if t.r.Intn(10) < 7 {
		t.m.Put(k, op)
	} else {
		t.m.Get(k)
	}
	el := float64(time.Since(start).Nanoseconds())
	t.lats[phase] = append(t.lats[phase], el)
	t.ops++

	if t.role == "drift" {
		switch t.ah.State() {
		case sepe.AdaptiveDegraded, sepe.AdaptiveResynthesizing:
			if t.degradedAt == 0 {
				t.degradedAt = op
				t.degradeT = start
			}
		case sepe.AdaptiveRecovered:
			if t.degradedAt != 0 && t.recoveredAt == 0 {
				t.recoveredAt = op
				t.recoveryMs = float64(time.Since(t.degradeT).Microseconds()) / 1000
			}
		}
	}
}

// runTraffic drives the simulator for the given total op count and
// emits the JSON report.
func runTraffic(out io.Writer, ops int, seedVal uint64) error {
	if ops < 50000 {
		ops = 50000
	}
	phases := []trafficPhase{
		{Name: "warm", Ops: ops * 10 / 100},
		{Name: "steady", Ops: ops * 30 / 100},
		{Name: "drift", Ops: ops * 20 / 100},
		{Name: "flood", Ops: ops * 25 / 100},
		{Name: "cooldown", Ops: ops * 15 / 100},
	}

	tenants := make([]*tenant, 0, 3)
	for _, tc := range []struct {
		name, role string
		typ        keys.Type
	}{
		{"ctl-url1", "control", keys.URL1},
		{"drift-ipv4", "drift", keys.IPv4},
		{"flood-ssn", "flood", keys.SSN},
	} {
		tn, err := newTenant(tc.name, tc.role, tc.typ, seedVal+uint64(len(tenants))*0x9E37)
		if err != nil {
			return err
		}
		defer tn.ah.Close()
		tenants = append(tenants, tn)
	}

	// Fault 1: the drift tenant's stream will switch to MAC keys.
	tenants[1].driftGen = keys.NewGenerator(keys.MAC, keys.Uniform, seedVal^0xD21F7)

	// Fault 2: the attacker mines a flood set offline against the
	// UNSEEDED function for the flood tenant's format — full format
	// knowledge, no seed knowledge.
	ft := tenants[2]
	samples := keys.NewGenerator(ft.typ, keys.Uniform, seedVal).Distinct(512)
	af, err := sepe.Infer(samples)
	if err != nil {
		return err
	}
	unseeded, err := sepe.Synthesize(af, sepe.Pext)
	if err != nil {
		return err
	}
	miner, err := flood.NewMiner(unseeded.Func(), af.Matches, samples)
	if err != nil {
		return fmt.Errorf("attack mining: %w", err)
	}
	ft.attack = miner.MineBuckets(floodBuckets, floodTargets, floodKeys, floodBudget)
	if len(ft.attack) < 256 {
		return fmt.Errorf("attack mining produced only %d keys", len(ft.attack))
	}

	// The unseeded control: a static table under the exact same
	// flood-phase stream, showing what the attack does to a
	// deployment that did not seed.
	ctlMap := sepe.NewMap[int](unseeded.Func())
	var ctlLats []float64

	// Drive the phases. Tenants interleave round-robin so all streams
	// stay live through every phase — recovery happens under load, not
	// in a quiet window.
	op := 0
	for _, ph := range phases {
		fmt.Fprintf(os.Stderr, "traffic phase %-8s %d ops\n", ph.Name, ph.Ops)
		for i := 0; i < ph.Ops; i++ {
			tn := tenants[op%len(tenants)]
			tn.step(ph.Name, op)
			if ph.Name == "flood" && tn.role == "flood" {
				// Mirror the flood tenant's key into the unseeded control.
				k := ft.attack[(ft.attackAt+len(ft.attack)-1)%len(ft.attack)]
				start := time.Now()
				ctlMap.Put(k, op)
				ctlLats = append(ctlLats, float64(time.Since(start).Nanoseconds()))
			}
			op++
		}
	}

	rep := trafficReport{
		Description: "Fault-injecting production traffic simulation over seeded adaptive " +
			"hashes: three tenants (control, injected format drift, injected hash-flood " +
			"attack mined against the unseeded function) under phased Zipf-skewed load " +
			"with key churn. Reports per-phase latency percentiles, drift " +
			"time-to-recover through the seed-rotating adaptive lifecycle, and the " +
			"flood key set's bucket collisions against the live seeded hash vs a " +
			"random oracle.",
		Command: "go run ./cmd/sepebench -traffic > BENCH_traffic.json",
		Date:    time.Now().Format("2006-01-02"),
		Ops:     op,
		Seed:    seedVal,
		Phases:  phases,
	}
	rep.Summary.FloodDefeated = true
	rep.Summary.Recovered = true

	for _, tn := range tenants {
		tt := trafficTenant{
			Name:      tn.name,
			Format:    tn.typ.Name(),
			Role:      tn.role,
			Ops:       tn.ops,
			Entries:   tn.m.Len(),
			Latencies: map[string]latencyStats{},
		}
		for ph, ls := range tn.lats {
			tt.Latencies[ph] = percentiles(ls)
		}
		switch tn.role {
		case "drift":
			tt.DegradedAtOp = tn.degradedAt
			tt.RecoveredAtOp = tn.recoveredAt
			tt.Recovered = tn.recoveredAt != 0 && tn.ah.State() == sepe.AdaptiveRecovered
			if tt.Recovered {
				tt.RecoveryOps = tn.recoveredAt - tn.degradedAt
				tt.RecoveryMs = tn.recoveryMs
			} else {
				rep.Summary.Recovered = false
			}
		case "flood":
			tt.AttackKeys = len(tn.attack)
			hs := flood.Hashes(tn.ah.Func(), tn.attack)
			tt.SeededBColl = flood.BColl(hs, floodBuckets)
			tt.UnseededBColl = flood.BColl(flood.Hashes(unseeded.Func(), tn.attack), floodBuckets)
			tt.OracleMu, tt.OracleSigma = flood.OracleBColl(len(tn.attack), floodBuckets, floodTrials, seedVal|1)
			if tt.OracleSigma < 1 {
				tt.OracleSigma = 1
			}
			tt.Z = (float64(tt.SeededBColl) - tt.OracleMu) / tt.OracleSigma
			if tt.Z < 0 {
				tt.Z = -tt.Z
			}
			if tt.Z > rep.Summary.MaxZ {
				rep.Summary.MaxZ = tt.Z
			}
			// A single-seed observation gets a wider gate than the
			// 5-seed averaged go test (4 sigma ~ 1e-4 false alarm).
			if tt.Z > 4 {
				rep.Summary.FloodDefeated = false
			}
			tt.UnseededCtlP99 = percentiles(ctlLats).P99Ns
			if st, ok := tt.Latencies["steady"]; ok && st.P99Ns > 0 {
				if fl, ok := tt.Latencies["flood"]; ok {
					tt.FloodP99Penalty = fl.P99Ns / st.P99Ns
				}
			}
		}
		rep.Tenants = append(rep.Tenants, tt)
	}

	rep.Summary.OK = rep.Summary.Recovered && rep.Summary.FloodDefeated
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Summary.OK {
		return fmt.Errorf("traffic simulation failed: recovered=%v flood_defeated=%v (max z %.2f)",
			rep.Summary.Recovered, rep.Summary.FloodDefeated, rep.Summary.MaxZ)
	}
	return nil
}
