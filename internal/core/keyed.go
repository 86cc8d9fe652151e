package core

import (
	"math/bits"

	"github.com/sepe-go/sepe/internal/aesround"
	"github.com/sepe-go/sepe/internal/seed"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// This file implements the plan IR's keying slot. Seeded synthesis
// keeps the paper's specialized dataflow untouched and keys it at the
// edges, so every structural property the certifier proves about the
// unseeded plan survives:
//
//   - The linear families (Naive, OffXor, Pext) get a secret affine
//     GF(2) transform applied after the plan's own combiner:
//     h = Mix(h0) ^ C, where Mix is one wide xor-rotate round with four
//     seed-derived rotation amounts and C folds the seed's pre-mix key
//     through Mix (Mix(h0 ^ pre) = Mix(h0) ^ Mix(pre), so the xor
//     "pre-mix" of the issue costs nothing extra at runtime). Mix is
//     invertible by construction — the circulant of a weight-5
//     polynomial — and additionally *certified* full rank by the same
//     GF(2) elimination the certifier runs, which is the authority:
//     deriveSeed re-derives with a bumped attempt counter if the rank
//     check ever fails.
//   - The Aes family swaps its two baked-in round keys for seed-derived
//     ones: the keying rides the existing AESENC path at zero extra
//     hot-path cost. (Aes plans that fall back to the STL hash for
//     short formats still get the post-mix, so every seeded plan
//     depends on its seed.)
//
// An attacker who knows the format — and can therefore reproduce the
// unseeded function bit for bit — sees its output only through an
// unknown member of a 2^64-strong affine family, which is what defeats
// offline collision mining against bucket placement (see the flood
// test and DESIGN.md §11). The plan records only the seed's generation
// number; raw material never reaches telemetry (enforced by sepevet's
// seedcheck analyzer).

// PlanSeed is the keying slot of a plan: the derived post-mix and AES
// round keys of one seed. It carries no recoverable copy of the master
// seed.
type PlanSeed struct {
	// R holds the four rotation amounts of the xor-rotate post-mix
	// round (see seed.Material.R for the invertibility argument).
	R [4]int
	// C is the pre-mix key folded through the post-mix; the compiled
	// closure computes Mix(h0) ^ C.
	C uint64
	// K0 and K1 are the seed-derived AES round keys (Aes family).
	K0, K1 aesround.State
	// Gen is the seed's disclosure-safe generation number, for
	// certificates and telemetry.
	Gen uint64
	// inv caches the columns of Mix⁻¹ for Invert.
	inv [64]uint64
}

// Mix applies the post-mix round to x.
func (s *PlanSeed) Mix(x uint64) uint64 {
	return x ^ bits.RotateLeft64(x, s.R[0]) ^ bits.RotateLeft64(x, s.R[1]) ^
		bits.RotateLeft64(x, s.R[2]) ^ bits.RotateLeft64(x, s.R[3])
}

// unmix applies Mix⁻¹ to y.
func (s *PlanSeed) unmix(y uint64) uint64 {
	var x uint64
	for y != 0 {
		b := bits.TrailingZeros64(y)
		x ^= s.inv[b]
		y &^= 1 << b
	}
	return x
}

// mixed reports whether the plan's compiled closure carries the affine
// post-mix: all seeded plans except Aes ones, whose keying lives in
// the round keys instead (Aes fallback plans have no rounds, so they
// take the post-mix too).
func (p *Plan) mixed() bool {
	return p.Seed != nil && (p.Family != Aes || p.Fallback)
}

// deriveSeed expands a seed into the plan's keying slot. The post-mix
// is accepted only once the certifier's own GF(2) elimination proves it
// full rank (and its inverse exists); the weight-5 circulant
// construction makes rejection impossible, but the proof — not the
// construction — gates acceptance.
func deriveSeed(s *seed.Seed, rec *telemetry.Recorder) *PlanSeed {
	var ps *PlanSeed
	telemetry.Span(rec, "plan", "plan.seed", func() []telemetry.Attr {
		for attempt := uint64(0); ; attempt++ {
			m := s.MaterialAt(attempt)
			ps = &PlanSeed{
				R:   m.R,
				K0:  aesround.State{Lo: m.K0Lo, Hi: m.K0Hi},
				K1:  aesround.State{Lo: m.K1Lo, Hi: m.K1Hi},
				Gen: s.Generation(),
			}
			cols := make([]uint64, 64)
			for b := 0; b < 64; b++ {
				cols[b] = ps.Mix(1 << b)
			}
			rank, _ := gf2(cols)
			inv, ok := gf2Invert(cols)
			if rank != 64 || !ok {
				continue
			}
			ps.inv = inv
			ps.C = ps.Mix(m.Pre)
			return []telemetry.Attr{telemetry.Int("attempt", int(attempt)),
				telemetry.Int("generation", int(ps.Gen))}
		}
	})
	return ps
}

// gf2Invert inverts a 64×64 GF(2) matrix given as columns (cols[b] is
// the image of basis vector b). Gauss-Jordan column reduction to the
// identity applies the same column operations to an identity matrix,
// which therefore accumulates the inverse's columns. ok is false for a
// singular matrix.
func gf2Invert(cols []uint64) ([64]uint64, bool) {
	var m, inv [64]uint64
	copy(m[:], cols)
	for i := range inv {
		inv[i] = 1 << i
	}
	for r := 0; r < 64; r++ {
		p := -1
		for j := r; j < 64; j++ {
			if m[j]>>r&1 == 1 {
				p = j
				break
			}
		}
		if p < 0 {
			return inv, false
		}
		m[r], m[p] = m[p], m[r]
		inv[r], inv[p] = inv[p], inv[r]
		for j := 0; j < 64; j++ {
			if j != r && m[j]>>r&1 == 1 {
				m[j] ^= m[r]
				inv[j] ^= inv[r]
			}
		}
	}
	return inv, true
}
