package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/flood"
	"github.com/sepe-go/sepe/internal/keys"
)

// The -flood experiment: mount the strongest realistic hash-flood
// attack against every (RQ format, family) pair — the attacker knows
// the format, reproduces the unseeded function, recovers its affine
// structure (or falls back to brute-force search) and mines in-format
// keys that crowd a handful of buckets — then measure how the same
// key set behaves against seeded deployments, alongside the hot-path
// cost of seeding on a container insert+lookup workload. The
// checked-in BENCH_flood.json is this report regenerated with
//
//	go run ./cmd/sepebench -flood > BENCH_flood.json
//
// The table geometry and mining budget are internal/flood's shared
// constants; floodSeeds is the number of seeded deployments per row.
const floodSeeds = 5

type floodReport struct {
	Description string       `json:"description"`
	Command     string       `json:"command"`
	Date        string       `json:"date"`
	Buckets     uint64       `json:"buckets"`
	Targets     uint64       `json:"targets"`
	Rows        []floodRow   `json:"rows"`
	Summary     floodSummary `json:"summary"`
}

type floodRow struct {
	Key     string `json:"key"`
	Family  string `json:"family"`
	Channel string `json:"channel"` // affine | brute
	// AffineBits is the number of independent GF(2)-affine key bits
	// the miner recovered from black-box probing (0 for brute).
	AffineBits int `json:"affine_bits"`
	AttackKeys int `json:"attack_keys"`
	// UnseededBColl is the bucket-collision count of the mined key set
	// against the function the attacker modeled: catastrophic by
	// construction (pinned near AttackKeys - Targets).
	UnseededBColl int `json:"unseeded_bcoll"`
	// SeededMeanBColl averages the same key set's B-Coll over
	// independently seeded deployments; OracleMu/OracleSigma give the
	// random-oracle yardstick and Z the distance in sigmas.
	SeededMeanBColl float64 `json:"seeded_mean_bcoll"`
	OracleMu        float64 `json:"oracle_mu"`
	OracleSigma     float64 `json:"oracle_sigma"`
	Z               float64 `json:"z"`
	SeededBijective bool    `json:"seeded_bijective"`
	MixerRank       int     `json:"mixer_rank"`
	// Container insert+lookup cost (B-Time-style workload), unseeded
	// vs seeded, and the relative overhead of keying the deployment.
	// Per-row numbers carry a few percent of seed-dependent variance —
	// a seeded hash permutes bucket placement, so the two maps' cache
	// behavior genuinely differs — which is why acceptance gates on
	// the mean across rows, not the per-row max.
	UnseededNsOp float64 `json:"unseeded_ns_op"`
	SeededNsOp   float64 `json:"seeded_ns_op"`
	OverheadPct  float64 `json:"overhead_pct"`
	// Raw hash-call latency in a tight loop (no container), and the
	// absolute cost the post-mix adds per call. This is the stable
	// number: the mix is pure register ALU work, so its delta does not
	// depend on memory layout.
	UnseededHashNs float64 `json:"unseeded_hash_ns"`
	SeededHashNs   float64 `json:"seeded_hash_ns"`
	MixNs          float64 `json:"mix_ns"`
}

type floodSummary struct {
	Rows           int     `json:"rows"`
	MaxZ           float64 `json:"max_z"`
	MeanOverhead   float64 `json:"mean_overhead_pct"`
	MaxOverheadPct float64 `json:"max_overhead_pct"`
	MaxMixNs       float64 `json:"max_mix_ns"`
	FloodDefeated  bool    `json:"flood_defeated"`
	OverheadOK     bool    `json:"overhead_ok"`
}

// containerOverhead times a steady-state container workload —
// overwrite-Put and Get rounds over a warmed table — for the unseeded
// and seeded functions, returning ns/op for each. Two noise sources
// dominate a sub-nanosecond per-op difference on a shared host and the
// measurement is structured against both: within a trial the two maps
// are measured in interleaved repetitions with best-of-reps per side
// (scheduler stalls, frequency shifts and GC cycles land on both sides
// alike); across trials the maps are rebuilt from scratch in
// alternating allocation order and the median trial ratio wins, which
// cancels the persistent few-percent bias a particular cache/TLB
// layout can hand to whichever map happened to be allocated first.
// Warming keeps growth rehashes and allocation out of the window.
func containerOverhead(unFn, seFn sepe.HashFunc, ks []string) (unNs, seNs float64) {
	const trials, reps, rounds = 5, 10, 6
	warm := func(fn sepe.HashFunc) *sepe.Map[int] {
		m := sepe.NewMap[int](fn)
		for i, k := range ks {
			m.Put(k, i)
		}
		return m
	}
	run := func(m *sepe.Map[int]) time.Duration {
		start := time.Now()
		hits := 0
		for round := 0; round < rounds; round++ {
			for i, k := range ks {
				m.Put(k, i)
			}
			for _, k := range ks {
				if _, ok := m.Get(k); ok {
					hits++
				}
			}
		}
		el := time.Since(start)
		if hits != rounds*len(ks) {
			panic("container lost keys during timing")
		}
		return el
	}
	type trial struct{ u, s time.Duration }
	results := make([]trial, 0, trials)
	for t := 0; t < trials; t++ {
		var mu, ms *sepe.Map[int]
		if t%2 == 0 {
			mu, ms = warm(unFn), warm(seFn)
		} else {
			ms, mu = warm(seFn), warm(unFn)
		}
		runtime.GC()
		run(mu) // untimed warmup pass per side
		run(ms)
		tr := trial{u: 1 << 62, s: 1 << 62}
		for r := 0; r < reps; r++ {
			if u := run(mu); u < tr.u {
				tr.u = u
			}
			if s := run(ms); s < tr.s {
				tr.s = s
			}
		}
		results = append(results, tr)
	}
	sort.Slice(results, func(i, j int) bool {
		return float64(results[i].s)/float64(results[i].u) <
			float64(results[j].s)/float64(results[j].u)
	})
	med := results[len(results)/2]
	perOp := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / float64(2*rounds*len(ks))
	}
	return perOp(med.u), perOp(med.s)
}

// hashPairNs times the bare hash calls of the two functions over the
// same key set in interleaved best-of repetitions, returning ns/call
// for each. Unlike the container workload this loop is register-bound,
// so the seeded-minus-unseeded delta isolates the post-mix ALU cost.
func hashPairNs(unFn, seFn sepe.HashFunc, ks []string) (unNs, seNs float64) {
	const reps, rounds = 25, 24
	var sink uint64
	run := func(fn sepe.HashFunc) time.Duration {
		start := time.Now()
		for round := 0; round < rounds; round++ {
			for _, k := range ks {
				sink += fn(k)
			}
		}
		return time.Since(start)
	}
	run(unFn) // warmup
	run(seFn)
	bestU, bestS := time.Duration(1<<62), time.Duration(1<<62)
	for r := 0; r < reps; r++ {
		if u := run(unFn); u < bestU {
			bestU = u
		}
		if s := run(seFn); s < bestS {
			bestS = s
		}
	}
	if sink == 0xDEAD {
		panic("unreachable: defeat dead-code elimination")
	}
	perOp := func(d time.Duration) float64 {
		return float64(d.Nanoseconds()) / float64(rounds*len(ks))
	}
	return perOp(bestU), perOp(bestS)
}

func floodRowFor(t keys.Type, fam sepe.Family) (floodRow, error) {
	row := floodRow{Key: t.Name(), Family: fam.String()}
	gen := keys.NewGenerator(t, keys.Uniform, 0xF100D)
	samples := gen.Distinct(512)
	f, err := sepe.Infer(samples)
	if err != nil {
		return row, fmt.Errorf("%s: infer: %w", t.Name(), err)
	}
	base, err := sepe.Synthesize(f, fam)
	if err != nil {
		return row, fmt.Errorf("%s/%s: synthesize: %w", t.Name(), fam, err)
	}

	var attack []string
	if miner, err := flood.NewMiner(base.Func(), f.Matches, samples); err == nil {
		attack = miner.MineBuckets(flood.Buckets, flood.Targets, flood.Keys, flood.Budget)
		row.Channel, row.AffineBits = "affine", miner.Bits()
	}
	if len(attack) < 256 {
		attack = flood.MineBrute(base.Func(), gen.Next, flood.Buckets, flood.Targets, flood.Keys/4, 1<<21)
		row.Channel, row.AffineBits = "brute", 0
	}
	row.AttackKeys = len(attack)
	if len(attack) == 0 {
		return row, fmt.Errorf("%s/%s: no attack keys mined", t.Name(), fam)
	}
	row.UnseededBColl = flood.BColl(flood.Hashes(base.Func(), attack), flood.Buckets)
	row.OracleMu, row.OracleSigma = flood.OracleBColl(len(attack), flood.Buckets, flood.OracleTrials, 0xBADC0DE)
	if row.OracleSigma < 1 {
		row.OracleSigma = 1
	}

	var seeded *sepe.Hash
	for i := uint64(0); i < floodSeeds; i++ {
		sh, err := sepe.Synthesize(f, fam, sepe.WithSeed(sepe.SeedFromUint64(0xC0FFEE00+i)))
		if err != nil {
			return row, fmt.Errorf("%s/%s: seeded synthesize: %w", t.Name(), fam, err)
		}
		seeded = sh
		row.SeededMeanBColl += float64(flood.BColl(flood.Hashes(sh.Func(), attack), flood.Buckets))
	}
	row.SeededMeanBColl /= floodSeeds
	row.Z = (row.SeededMeanBColl - row.OracleMu) / row.OracleSigma
	if row.Z < 0 {
		row.Z = -row.Z
	}
	cert := seeded.Certificate()
	row.SeededBijective = cert.Bijective
	row.MixerRank = cert.MixerRank

	work := gen.Distinct(4096)
	row.UnseededNsOp, row.SeededNsOp = containerOverhead(base.Func(), seeded.Func(), work)
	row.OverheadPct = 100 * (row.SeededNsOp - row.UnseededNsOp) / row.UnseededNsOp
	row.UnseededHashNs, row.SeededHashNs = hashPairNs(base.Func(), seeded.Func(), work)
	row.MixNs = row.SeededHashNs - row.UnseededHashNs
	return row, nil
}

// runFlood emits the flood-resistance report and fails the run when
// any seeded deployment's attack B-Coll strays more than 2σ from the
// random oracle — i.e. when a mined key set retains leverage against
// a keyed hash.
func runFlood(out io.Writer) error {
	rep := floodReport{
		Description: "Hash-flood resistance of keyed synthesis: per (RQ format, family), " +
			"an attacker with full format knowledge mines in-format keys that crowd " +
			fmt.Sprint(flood.Targets) + " of " + fmt.Sprint(flood.Buckets) + " buckets against the " +
			"unseeded function (catastrophic B-Coll), then the same key set is replayed " +
			"against independently seeded deployments and compared to a uniform random " +
			"oracle. Overhead is the seeded-vs-unseeded cost of a container " +
			"insert+lookup workload; acceptance (<=5%) gates on the mean across rows " +
			"because per-row numbers carry seed-dependent bucket-layout variance, and " +
			"mix_ns records the stable register-level cost of the post-mix per hash call.",
		Command: "go run ./cmd/sepebench -flood > BENCH_flood.json",
		Date:    time.Now().Format("2006-01-02"),
		Buckets: flood.Buckets,
		Targets: flood.Targets,
	}
	rep.Summary.FloodDefeated = true
	for _, t := range keys.All {
		for _, fam := range []sepe.Family{sepe.Pext, sepe.Aes} {
			row, err := floodRowFor(t, fam)
			if err != nil {
				return err
			}
			rep.Rows = append(rep.Rows, row)
			if row.Z > rep.Summary.MaxZ {
				rep.Summary.MaxZ = row.Z
			}
			rep.Summary.MeanOverhead += row.OverheadPct
			if row.OverheadPct > rep.Summary.MaxOverheadPct {
				rep.Summary.MaxOverheadPct = row.OverheadPct
			}
			// Aes rows carry no post-mix (keying lives in the round
			// keys), so their MixNs is the noise floor of timing two
			// identical-cost functions; the summary tracks the real
			// post-mix cost over the linear-family rows only.
			if fam != sepe.Aes && row.MixNs > rep.Summary.MaxMixNs {
				rep.Summary.MaxMixNs = row.MixNs
			}
			if row.Z > 2 {
				rep.Summary.FloodDefeated = false
			}
			fmt.Fprintf(os.Stderr, "flood %-5s %-6s %-6s keys=%-5d unseeded=%-5d seeded=%-6.1f oracle=%.1f±%.1f z=%.2f overhead=%+.1f%% mix=%+.2fns\n",
				t.Name(), fam, row.Channel, row.AttackKeys, row.UnseededBColl,
				row.SeededMeanBColl, row.OracleMu, row.OracleSigma, row.Z, row.OverheadPct, row.MixNs)
		}
	}
	rep.Summary.Rows = len(rep.Rows)
	rep.Summary.MeanOverhead /= float64(len(rep.Rows))
	rep.Summary.OverheadOK = rep.Summary.MeanOverhead <= 5

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if !rep.Summary.FloodDefeated {
		return fmt.Errorf("flood not defeated: max z = %.2f (> 2)", rep.Summary.MaxZ)
	}
	if !rep.Summary.OverheadOK {
		return fmt.Errorf("seeding overhead too high: mean %.1f%% (> 5%%)", rep.Summary.MeanOverhead)
	}
	return nil
}
