package sepe_test

import (
	"math"
	"testing"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/flood"
	"github.com/sepe-go/sepe/internal/keys"
)

// floodSigma floors the oracle deviation so a degenerate estimate
// cannot make the acceptance band empty.
func floodSigma(s float64) float64 {
	if s < 1 {
		return 1
	}
	return s
}

// TestFloodResistance mounts the strongest realistic hash-flood
// attack against every RQ format: the attacker knows the format,
// reconstructs the exact unseeded Pext function, recovers its affine
// structure by black-box probing, and mines in-format keys that crowd
// 16 buckets of a 2053-bucket table. The test then asserts the two
// sides of the keyed-hashing claim:
//
//   - unseeded deployments are catastrophically floodable — the mined
//     set's B-Coll is pinned at its theoretical maximum, and
//   - seeded deployments shrug the same key set off — mean B-Coll over
//     several fixed seeds lands within 2σ of a uniform random oracle,
//     i.e. the attack gained nothing over random keys — while the
//     seeded plans keep full bijectivity certificates (MixerRank 64).
func TestFloodResistance(t *testing.T) {
	for _, typ := range keys.All {
		typ := typ
		t.Run(typ.Name(), func(t *testing.T) {
			gen := keys.NewGenerator(typ, keys.Uniform, 0xF100D)
			samples := gen.Distinct(512)
			f, err := sepe.Infer(samples)
			if err != nil {
				t.Fatalf("Infer: %v", err)
			}
			base, err := sepe.Synthesize(f, sepe.Pext)
			if err != nil {
				t.Fatalf("Synthesize: %v", err)
			}

			miner, err := flood.NewMiner(base.Func(), f.Matches, samples)
			if err != nil {
				t.Fatalf("NewMiner: %v", err)
			}
			attack := miner.MineBuckets(flood.Buckets, flood.Targets, flood.Keys, flood.Budget)
			if len(attack) < 256 {
				t.Fatalf("mined only %d attack keys (affine bits: %d), attack too weak to test",
					len(attack), miner.Bits())
			}

			// Unseeded: every mined key lands in the 16 target buckets,
			// so B-Coll is pinned at len-16 or worse — the table is a
			// handful of chains.
			unseeded := flood.BColl(flood.Hashes(base.Func(), attack), flood.Buckets)
			if unseeded < len(attack)-flood.Targets {
				t.Fatalf("unseeded B-Coll = %d, want >= %d (attack should be catastrophic)",
					unseeded, len(attack)-flood.Targets)
			}

			mu, sigma := flood.OracleBColl(len(attack), flood.Buckets, flood.OracleTrials, 0xBADC0DE)
			sigma = floodSigma(sigma)

			// Seeded: same key set, several fixed seeds. The attacker's
			// affine model describes a different member of the family, so
			// the mined set must scatter like random keys.
			const nSeeds = 5
			var mean float64
			for i := uint64(0); i < nSeeds; i++ {
				sh, err := sepe.Synthesize(f, sepe.Pext,
					sepe.WithSeed(sepe.SeedFromUint64(0xC0FFEE00+i)))
				if err != nil {
					t.Fatalf("seeded Synthesize: %v", err)
				}
				if !sh.Seeded() {
					t.Fatal("WithSeed produced an unseeded hash")
				}
				mean += float64(flood.BColl(flood.Hashes(sh.Func(), attack), flood.Buckets))

				cert := sh.Certificate()
				if !cert.Seeded || cert.MixerRank != 64 {
					t.Fatalf("seeded certificate: Seeded=%v MixerRank=%d, want true/64",
						cert.Seeded, cert.MixerRank)
				}
				if base.Bijective() && !cert.Bijective {
					t.Fatalf("seeding destroyed bijectivity: %s", cert.Reason)
				}
			}
			mean /= nSeeds
			if z := math.Abs(mean-mu) / sigma; z > 2 {
				t.Fatalf("seeded mean B-Coll %.1f vs oracle %.1f±%.1f (z=%.2f): attack retains leverage",
					mean, mu, sigma, z)
			}
			t.Logf("%s: %d attack keys, unseeded B-Coll %d, seeded mean %.1f, oracle %.1f±%.1f",
				typ.Name(), len(attack), unseeded, mean, mu, sigma)
		})
	}
}

// TestFloodResistanceAes covers the AES family. An AES round is
// nonlinear within each byte but xor-separable across bytes, so the
// affine miner can model it on the subcube where each byte takes two
// values — and when that model breaks down, the format-oblivious
// brute-force attack still works against any deterministic hash. The
// test mounts whichever channel yields keys and asserts the same
// pair of claims as the linear families: catastrophic unseeded,
// oracle-level seeded (the seed here lives in the AES round keys, not
// a post-mix).
func TestFloodResistanceAes(t *testing.T) {
	gen := keys.NewGenerator(keys.SSN, keys.Uniform, 0xAE5)
	samples := gen.Distinct(512)
	f, err := sepe.Infer(samples)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	base, err := sepe.Synthesize(f, sepe.Aes)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}

	var attack []string
	if miner, err := flood.NewMiner(base.Func(), f.Matches, samples); err == nil {
		attack = miner.MineBuckets(flood.Buckets, flood.Targets, 512, flood.Budget)
		t.Logf("affine miner modeled Aes on a %d-bit subcube, mined %d keys", miner.Bits(), len(attack))
	}
	if len(attack) < 256 {
		attack = flood.MineBrute(base.Func(), gen.Next, flood.Buckets, flood.Targets, 512, 1<<20)
		t.Logf("brute channel mined %d keys", len(attack))
	}
	if len(attack) < 256 {
		t.Fatalf("attack mined only %d keys", len(attack))
	}
	unseeded := flood.BColl(flood.Hashes(base.Func(), attack), flood.Buckets)
	if unseeded < len(attack)-flood.Targets {
		t.Fatalf("unseeded Aes B-Coll = %d, want >= %d", unseeded, len(attack)-flood.Targets)
	}

	mu, sigma := flood.OracleBColl(len(attack), flood.Buckets, flood.OracleTrials, 0x5EED)
	sigma = floodSigma(sigma)
	const nSeeds = 3
	var mean float64
	for i := uint64(0); i < nSeeds; i++ {
		sh, err := sepe.Synthesize(f, sepe.Aes, sepe.WithSeed(sepe.SeedFromUint64(0xAE50000+i)))
		if err != nil {
			t.Fatalf("seeded Synthesize: %v", err)
		}
		mean += float64(flood.BColl(flood.Hashes(sh.Func(), attack), flood.Buckets))
	}
	mean /= nSeeds
	if z := math.Abs(mean-mu) / sigma; z > 2 {
		t.Fatalf("seeded Aes mean B-Coll %.1f vs oracle %.1f±%.1f (z=%.2f)", mean, mu, sigma, z)
	}
}
