package bench

import (
	"testing"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/keys"
)

func TestHashForResolvesAll(t *testing.T) {
	for _, typ := range keys.All {
		for _, name := range AllHashes {
			f, err := HashFor(name, typ, core.TargetX86)
			if err != nil {
				t.Fatalf("%v/%v: %v", name, typ, err)
			}
			g := keys.NewGenerator(typ, keys.Uniform, 1)
			k := g.Next()
			if f(k) != f(k) {
				t.Fatalf("%v/%v nondeterministic", name, typ)
			}
		}
	}
}

func TestHashForCaches(t *testing.T) {
	a, err := HashFor(Pext, keys.SSN, core.TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HashFor(Pext, keys.SSN, core.TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	if a("123-45-6789") != b("123-45-6789") {
		t.Error("cached function differs")
	}
}

func TestHashesForAarch64OmitsPext(t *testing.T) {
	m, err := HashesFor(keys.SSN, core.TargetAarch64)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m[Pext]; ok {
		t.Error("aarch64 must omit Pext (RQ4)")
	}
	if len(m) != len(AllHashes)-1 {
		t.Errorf("aarch64 functions = %d, want %d", len(m), len(AllHashes)-1)
	}
}

func TestSyntheticNames(t *testing.T) {
	for _, n := range SyntheticHashes {
		if !n.Synthetic() {
			t.Errorf("%v must be synthetic", n)
		}
	}
	if STL.Synthetic() || Gperf.Synthetic() {
		t.Error("baselines must not be synthetic")
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(keys.SSN)
	// 4 structures × 3 distributions × 3 spreads × 4 modes = 144,
	// the paper's experiment count.
	if len(g) != 144 {
		t.Fatalf("grid size = %d, want 144", len(g))
	}
	seen := map[string]bool{}
	for _, c := range g {
		s := c.String()
		if seen[s] {
			t.Fatalf("duplicate config %s", s)
		}
		seen[s] = true
	}
}

func TestRunBasics(t *testing.T) {
	f, err := HashFor(STL, keys.SSN, core.TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Key: keys.SSN, Structure: container.MapKind, Dist: keys.Uniform,
		Spread: 500, Mode: Batched, Affectations: 3000, Seed: 1,
	}
	res := Run(cfg, f)
	if res.Ops != 3000 {
		t.Errorf("Ops = %d, want 3000", res.Ops)
	}
	if res.BTime <= 0 || res.HTime <= 0 {
		t.Errorf("timings not recorded: %+v", res)
	}
	if res.TColl != 0 {
		t.Errorf("STL true collisions on 10k SSNs = %d, want 0", res.TColl)
	}
	if res.BColl <= 0 {
		t.Errorf("bucket collisions = %d, want > 0 for 10k keys", res.BColl)
	}
}

func TestRunAllModesAndStructures(t *testing.T) {
	f, err := HashFor(OffXor, keys.IPv4, core.TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range container.Kinds {
		for _, m := range Modes {
			cfg := Config{
				Key: keys.IPv4, Structure: st, Dist: keys.Normal,
				Spread: 500, Mode: m, Affectations: 1000, Seed: 2,
			}
			res := Run(cfg, f)
			if res.Ops != 1000 {
				t.Errorf("%v/%v: ops = %d", st, m, res.Ops)
			}
		}
	}
}

func TestRunDeterministicCollisions(t *testing.T) {
	f, err := HashFor(Pext, keys.SSN, core.TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Key: keys.SSN, Structure: container.SetKind, Dist: keys.Inc,
		Spread: 500, Mode: Batched, Affectations: 600, Seed: 3,
	}
	a, b := Run(cfg, f), Run(cfg, f)
	if a.TColl != b.TColl || a.BColl != b.BColl {
		t.Errorf("collision counts not deterministic: %+v vs %+v", a, b)
	}
	if a.TColl != 0 {
		t.Errorf("Pext on SSN must have zero true collisions, got %d", a.TColl)
	}
}

func TestPextZeroCollisionsEverywhere(t *testing.T) {
	// RQ5: "only Pext achieved 0 collisions across all key
	// distributions."
	for _, typ := range keys.All {
		f, err := HashFor(Pext, typ, core.TargetX86)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range keys.Distributions {
			cfg := Config{
				Key: typ, Structure: container.SetKind, Dist: d,
				Spread: 500, Mode: Batched, Affectations: 300, Seed: 4,
			}
			if res := Run(cfg, f); res.TColl != 0 {
				t.Errorf("Pext/%v/%v: TColl = %d, want 0", typ, d, res.TColl)
			}
		}
	}
}

func TestGperfCollidesMassively(t *testing.T) {
	f, err := HashFor(Gperf, keys.SSN, core.TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Key: keys.SSN, Structure: container.SetKind, Dist: keys.Uniform,
		Spread: 500, Mode: Batched, Affectations: 300, Seed: 5,
	}
	res := Run(cfg, f)
	if res.TColl < 3000 {
		t.Errorf("Gperf TColl = %d, want the paper's massive shape (thousands)", res.TColl)
	}
}

func TestRunGridSmall(t *testing.T) {
	ms, err := RunGrid([]keys.Type{keys.SSN}, []HashName{STL, OffXor}, Options{
		Samples:      1,
		Affectations: 200,
		Filter: func(c Config) bool {
			return c.Structure == container.MapKind && c.Spread == 500 && c.Mode == Batched
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 distributions × 2 hashes × 1 sample.
	if len(ms) != 6 {
		t.Fatalf("measurements = %d, want 6", len(ms))
	}
	aggs := Aggregates(ms)
	if len(aggs) != 2 {
		t.Fatalf("aggregates = %d, want 2", len(aggs))
	}
	for _, a := range aggs {
		if a.BTime <= 0 || a.HTime <= 0 {
			t.Errorf("%v: non-positive aggregate times %+v", a.Hash, a)
		}
		// STL collides never; OffXor's overlapping xor loads may
		// cancel occasionally (Table 1 reports 12 true collisions).
		limit := 0
		if a.Hash == OffXor {
			limit = 50
		}
		if a.TColl > limit {
			t.Errorf("%v: TColl = %d, want ≤ %d on SSN", a.Hash, a.TColl, limit)
		}
	}
}

func TestUniformitySTLBeatsOffXor(t *testing.T) {
	// The RQ3 shape: the synthetic functions are much less uniform
	// than STL for normal keys.
	table, err := UniformityTable(keys.SSN, []HashName{STL, OffXor, Pext}, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if table[STL][keys.Normal] != 1.0 {
		t.Errorf("STL normalized to %v, want 1", table[STL][keys.Normal])
	}
	if table[OffXor][keys.Normal] < 10 {
		t.Errorf("OffXor normalized χ² = %v, want ≫ 1", table[OffXor][keys.Normal])
	}
	// Pext beats the other synthetics on incremental keys (Table 2:
	// 7.63 vs 59-63).
	if table[Pext][keys.Inc] >= table[OffXor][keys.Inc] {
		t.Errorf("Pext inc χ² (%v) must beat OffXor's (%v)",
			table[Pext][keys.Inc], table[OffXor][keys.Inc])
	}
}

func TestSynthesisScalingLinear(t *testing.T) {
	pts, err := SynthesisScaling(core.Pext, 4, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("points = %d", len(pts))
	}
	r, err := PearsonOfScaling(pts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Pearson r = %.4f over %v", r, pts)
	// RQ6: "the smallest Pearson correlation … is 0.993".
	if r < 0.97 {
		t.Errorf("synthesis scaling Pearson r = %v, want ≥ 0.97 (linear)", r)
	}
}

func TestHashScalingLinear(t *testing.T) {
	f, err := HashFor(STL, keys.INTS, core.TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	pts := HashScaling(f, 4, 12, 500)
	r, err := PearsonOfHashScaling(pts)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.97 {
		t.Errorf("hash scaling Pearson r = %v, want linear", r)
	}
}

func TestLowMixingShape(t *testing.T) {
	// RQ7: OffXor degrades as low bits are discarded; STL resists.
	offxor, err := HashFor(OffXor, keys.SSN, core.TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	stl, err := HashFor(STL, keys.SSN, core.TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	// At 48 discarded bits only the top 16 bits index buckets. OffXor's
	// top bytes are xors of ASCII digits whose constant 0x3 nibbles
	// cancel, leaving ~8 bits of entropy; STL's top bits are fully
	// mixed. (At 56 bits both saturate — 2000 keys into ≤ 256 slots —
	// which is why the comparison point is 48.)
	discards := []uint{0, 32, 48}
	po := LowMixing(offxor, keys.SSN, keys.Uniform, discards, 2000)
	ps := LowMixing(stl, keys.SSN, keys.Uniform, discards, 2000)
	if po[2].TColl <= po[0].TColl {
		t.Errorf("OffXor TColl must grow with discarded bits: %+v", po)
	}
	if po[2].TColl < ps[2].TColl*5 {
		t.Errorf("OffXor (%d) must collide far more than STL (%d) at 48 discarded bits",
			po[2].TColl, ps[2].TColl)
	}
	if ps[0].TColl != 0 {
		t.Errorf("STL full-hash TColl = %d, want 0", ps[0].TColl)
	}
}

func TestModeStrings(t *testing.T) {
	if Batched.String() != "Batched" || Inter40.String() != "Inter(0.4,0.3)" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode name wrong")
	}
}

func TestCollisionPoolCached(t *testing.T) {
	a := collisionPool(keys.SSN, keys.Uniform, 99)
	b := collisionPool(keys.SSN, keys.Uniform, 99)
	if &a[0] != &b[0] {
		t.Error("collision pool not cached")
	}
	c := collisionPool(keys.SSN, keys.Uniform, 100)
	if &a[0] == &c[0] {
		t.Error("different seeds must not share a pool")
	}
	if len(a) != CollisionKeys {
		t.Errorf("pool size = %d", len(a))
	}
}

func TestRunSurvivesOffFormatPools(t *testing.T) {
	// A synthesized fixed-length function driven with keys of a
	// different (longer and shorter) type must not panic: the length
	// guard routes mismatched keys to the fallback.
	f, err := HashFor(Pext, keys.INTS, core.TargetX86)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "x", "123-45-6789", "way-too-short"} {
		_ = f(k) // must not panic
	}
	cfg := Config{
		Key: keys.SSN, Structure: container.MapKind, Dist: keys.Uniform,
		Spread: 500, Mode: Batched, Affectations: 500, Seed: 1,
	}
	res := Run(cfg, f) // INTS function over SSN keys: all fall back
	if res.Ops != 500 {
		t.Errorf("Ops = %d", res.Ops)
	}
}
