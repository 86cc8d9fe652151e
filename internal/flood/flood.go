// Package flood implements the attacker's side of the keyed-hashing
// threat model: synthesis of hash-flood key sets against a known
// format. The families SEPE synthesizes for a fixed format are pure
// functions of the key bytes, and the linear families (Pext, OffXor,
// Naive) are GF(2)-affine in every loaded bit. An adversary who knows
// the format — and for an unseeded deployment therefore knows the
// exact function — can recover that affine structure from black-box
// queries alone and enumerate in-format keys that all land in a
// handful of hash-table buckets, degrading the table to a linked
// list. The Miner in this package mounts exactly that attack; the
// flood-resistance tests then show the same key sets scatter like
// random keys once the deployment is seeded (sepe.WithSeed), because
// the attacker's affine model is of the wrong member of the family.
//
// The package is test/benchmark tooling: it lives behind the internal
// boundary and is imported by the flood-resistance tests, the adaptive
// fault test and the sepebench -flood driver, never by the library hot
// path.
package flood

import (
	"errors"
	"math"
	"math/bits"

	"github.com/sepe-go/sepe/internal/rng"
)

// The attack geometry every flood check shares: a small production
// hash table under a keyspace-exhaustion attack. The attacker mines
// Keys in-format keys that crowd Targets of Buckets buckets, within
// Budget enumeration steps; OracleTrials random-oracle trials give the
// B-Coll yardstick. A mined set that bites scores at least its size
// minus Targets in B-Coll against the function it was mined for.
const (
	Buckets      = 2053 // prime bucket count, worst case for mod-table tricks
	Targets      = 16   // buckets the attacker tries to crowd
	Keys         = 2048 // attack set size
	Budget       = 4 << 20
	OracleTrials = 24
)

// flipBit returns key with bit b of byte pos toggled.
func flipBit(key []byte, pos, bit int) []byte {
	out := make([]byte, len(key))
	copy(out, key)
	out[pos] ^= 1 << uint(bit)
	return out
}

// cand is one key bit the miner believes the target hash is affine
// in: flipping it XORs col into the hash regardless of the other
// candidate bits' values.
type cand struct {
	pos, bit int
	col      uint64
}

// Miner recovers the affine structure of a deterministic hash
// function over a fixed-length key format and enumerates keys with
// chosen hash properties. It models the strongest realistic
// flooder: full knowledge of the format and black-box query access
// to the exact (unseeded) function the victim runs.
type Miner struct {
	fn      func(string) uint64
	matches func(string) bool
	base    []byte
	h0      uint64
	kept    []cand
}

// ErrNotAffine reports that probing found fewer than two key bits the
// function is affine in — the function resists linear modeling (a
// well-mixed general-purpose hash observed black-box; note that one
// AES round, being xor-separable across bytes, does NOT resist it).
var ErrNotAffine = errors.New("flood: target function exposes no affine structure")

// NewMiner probes fn over single- and double-bit flips of a base key
// drawn from samples and keeps the key bits fn is affine in. samples
// must be in-format keys of equal length (fixed-length formats; the
// miner uses the first sample as flip base). matches is the format
// membership predicate; flips that leave the format are discarded, so
// every mined key is a legal key the victim cannot reject up front.
func NewMiner(fn func(string) uint64, matches func(string) bool, samples []string) (*Miner, error) {
	if len(samples) == 0 {
		return nil, errors.New("flood: no sample keys")
	}
	base := []byte(samples[0])
	h0 := fn(string(base))

	// Single-bit probe: candidate bits whose flip stays in-format.
	var cands []cand
	for pos := 0; pos < len(base); pos++ {
		for bit := 0; bit < 8; bit++ {
			k := flipBit(base, pos, bit)
			if !matches(string(k)) {
				continue
			}
			cands = append(cands, cand{pos, bit, fn(string(k)) ^ h0})
		}
	}
	if len(cands) < 2 {
		return nil, ErrNotAffine
	}

	// Pairwise affinity check: bit j is affine (with reference bit r)
	// iff flipping both XORs both columns. Nonlinear bits — the FNV
	// byte-tail of variable-length plans, or everything under an AES
	// round — fail this for almost any partner. The reference itself
	// may be a nonlinear bit, in which case nearly all pairs fail; try
	// a few references and keep the first that agrees with a majority.
	var kept []cand
	for ri := 0; ri < len(cands) && ri < 8; ri++ {
		ref := cands[ri]
		pass := []cand{ref}
		for j, c := range cands {
			if j == ri {
				continue
			}
			k := flipBit(flipBit(base, ref.pos, ref.bit), c.pos, c.bit)
			if fn(string(k)) == h0^ref.col^c.col {
				pass = append(pass, c)
			}
		}
		if (len(pass)-1)*2 >= len(cands)-1 {
			kept = pass
			break
		}
	}
	if len(kept) < 2 {
		return nil, ErrNotAffine
	}

	// Keep only bits with linearly independent columns (Gaussian
	// elimination over GF(2)). Independence makes every flip subset
	// hash distinctly under the probed function, so the mined key set
	// contains no true collisions — collisions in the kernel of the
	// unseeded map would survive any bijective post-mix and muddy the
	// seeded-vs-oracle comparison the tests make. 63 independent bits
	// bound the Gray-code enumeration space well past any budget.
	var ind []cand
	var basis []uint64
	for _, c := range kept {
		v := c.col
		for _, b := range basis {
			if x := v ^ b; x < v {
				v = x
			}
		}
		if v != 0 && len(ind) < 63 {
			basis = append(basis, v)
			ind = append(ind, c)
		}
	}
	if len(ind) < 2 {
		return nil, ErrNotAffine
	}
	return &Miner{fn: fn, matches: matches, base: base, h0: h0, kept: ind}, nil
}

// Bits returns the number of independent affine key bits recovered.
func (m *Miner) Bits() int { return len(m.kept) }

// buildKey materializes the base key with the flip subset encoded in
// gray applied (bit i of gray flips kept[i]).
func (m *Miner) buildKey(gray uint64) string {
	out := make([]byte, len(m.base))
	copy(out, m.base)
	for g := gray; g != 0; g &= g - 1 {
		c := m.kept[bits.TrailingZeros64(g)]
		out[c.pos] ^= 1 << uint(c.bit)
	}
	return string(out)
}

// MineBuckets enumerates flip subsets of the recovered affine bits in
// Gray-code order — each step is one XOR on the predicted hash — and
// keeps in-format keys whose true hash lands in buckets [0, s) of a
// p-bucket table, stopping after n keys or budget enumeration steps.
// Against the probed (unseeded) function the predicted and true hash
// agree, so acceptance is ~s/p per step and the returned keys crowd s
// buckets: inserting them drives the victim's table to its worst
// case. The verification against fn's real output means the attack
// never fools itself — keys are kept only if they truly collide.
func (m *Miner) MineBuckets(p, s uint64, n, budget int) []string {
	out := make([]string, 0, n)
	cur := m.h0
	var gray uint64
	limit := uint64(1) << uint(len(m.kept))
	for i := uint64(1); i < limit && i <= uint64(budget) && len(out) < n; i++ {
		tz := bits.TrailingZeros64(i)
		cur ^= m.kept[tz].col
		gray ^= 1 << uint(tz)
		if cur%p >= s {
			continue
		}
		key := m.buildKey(gray)
		if !m.matches(key) {
			continue
		}
		if m.fn(key)%p < s {
			out = append(out, key)
		}
	}
	return out
}

// MineBrute is the format-oblivious fallback attack that works
// against any deterministic hash, seeded or not: draw keys from gen
// and keep those whose hash lands in buckets [0, s) of p. Expected
// cost is p/s draws per key — feasible offline for small bucket
// counts, which is why seeding narrows but cannot close the flooding
// channel (the seeded threat model's residual risk; see DESIGN.md).
func MineBrute(fn func(string) uint64, gen func() string, p, s uint64, n, budget int) []string {
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < budget && len(out) < n; i++ {
		k := gen()
		if _, dup := seen[k]; dup {
			continue
		}
		if fn(k)%p < s {
			seen[k] = struct{}{}
			out = append(out, k)
		}
	}
	return out
}

// Hashes applies fn to each key.
func Hashes(fn func(string) uint64, keys []string) []uint64 {
	out := make([]uint64, len(keys))
	for i, k := range keys {
		out[i] = fn(k)
	}
	return out
}

// BColl is the paper's bucket-collision metric: the number of keys in
// excess of one in their bucket, i.e. len(hs) minus the number of
// distinct buckets hit. 0 is perfect spread; len(hs)-1 is a single
// chain.
func BColl(hs []uint64, buckets uint64) int {
	if len(hs) == 0 {
		return 0
	}
	used := make(map[uint64]struct{}, len(hs))
	for _, h := range hs {
		used[h%buckets] = struct{}{}
	}
	return len(hs) - len(used)
}

// OracleBColl estimates the mean and standard deviation of BColl for
// n hashes drawn from a uniform random oracle over the given bucket
// count, using trials deterministic pseudo-random trials. This is the
// yardstick the flood tests hold seeded deployments to: an attack key
// set whose seeded B-Coll sits within a couple of σ of the oracle has
// gained the attacker nothing over random keys.
func OracleBColl(n int, buckets uint64, trials int, seed uint64) (mu, sigma float64) {
	if trials <= 0 {
		return 0, 0
	}
	r := rng.New(seed)
	hs := make([]uint64, n)
	sum, sumSq := 0.0, 0.0
	for t := 0; t < trials; t++ {
		for i := range hs {
			hs[i] = r.Uint64()
		}
		b := float64(BColl(hs, buckets))
		sum += b
		sumSq += b * b
	}
	mu = sum / float64(trials)
	v := sumSq/float64(trials) - mu*mu
	if v < 0 {
		v = 0
	}
	return mu, math.Sqrt(v)
}
