package core

import (
	"fmt"
	"math/bits"

	"github.com/sepe-go/sepe/internal/pattern"
)

// This file implements the plan-IR certifier: a static analysis over a
// Plan that upgrades the paper's Section 4.2 claim — Pext plans are
// collision-free on their format — from a runtime spot-check into a
// machine-checkable proof object. The analysis is an abstract
// interpretation of the plan's dataflow over GF(2): for every variable
// key bit it derives the set of hash bits the bit reaches, through
// masks, extractions and packing rotations, by probing the plan's own
// compiled extraction networks on single-bit inputs. The xor-combining
// families (Naive, OffXor, Pext) are linear in the key bits, so the
// provenance columns form a matrix whose rank decides injectivity
// exactly: full column rank certifies a bijection, a rank deficit
// yields a kernel vector — a set of bits whose joint flip provably
// preserves the hash — from which the certifier constructs a concrete
// pair of format keys and verifies the collision by executing the
// compiled function. The AES family's encryption round is treated as
// full diffusion, so only coverage (dead entropy) is certified there.
//
// Certify strictly subsumes VerifyPlan: the translation-validation
// invariants (load bounds, mask/pattern agreement, skip-table shape)
// are the certificate's structural findings, and VerifyPlan is now a
// thin wrapper that fails on the first of them.

// BitRef identifies one bit of a format key: the byte offset within
// the key and the bit within that byte (0 = least significant).
type BitRef struct {
	Byte int `json:"byte"`
	Bit  int `json:"bit"`
}

// String renders the bit as byte.bit.
func (b BitRef) String() string { return fmt.Sprintf("%d.%d", b.Byte, b.Bit) }

// Funnel reports a hash bit fed by more than one variable key bit —
// the xor fan-in that makes >64-bit spills collide.
type Funnel struct {
	// HashBit is the hash bit position (0..63).
	HashBit int `json:"hash_bit"`
	// FanIn is the number of distinct variable key bits reaching it.
	FanIn int `json:"fan_in"`
}

// Counterexample is a verified pair of distinct format keys with equal
// hashes: the certificate's disproof of bijectivity. The pair is
// constructed from the kernel of the provenance matrix (or a dead bit)
// and validated by executing the compiled plan on both keys.
type Counterexample struct {
	Key1 string `json:"key1"`
	Key2 string `json:"key2"`
	// Hash is the common hash value of both keys.
	Hash uint64 `json:"hash"`
}

// Certificate is the machine-readable result of certifying one plan.
type Certificate struct {
	// Family names the certified function family.
	Family string `json:"family"`
	// Mode is the plan shape: fixed, variable, short or fallback.
	Mode string `json:"mode"`
	// Regex is the canonical rendering of the certified format.
	Regex string `json:"regex"`
	// VariableBits is the format's entropy over the guaranteed region
	// (the first MinLen bytes) — the matrix's column count for linear
	// families.
	VariableBits int `json:"variable_bits"`
	// Linear reports whether the hash is GF(2)-linear in the key bits
	// (Naive, OffXor, Pext), making Rank and the kernel exact.
	Linear bool `json:"linear"`
	// Rank is the provenance matrix's rank over the load-covered
	// variable bits (linear families only).
	Rank int `json:"rank"`
	// TailBits counts variable bits handled by the byte-tail loop of
	// variable-length plans; they are folded nonlinearly and excluded
	// from the linear analysis.
	TailBits int `json:"tail_bits,omitempty"`
	// Bijective reports a machine-checked injectivity proof on the
	// whole format: linear, fixed-length, ≤64 variable bits, full rank
	// and no structural findings.
	Bijective bool `json:"bijective"`
	// Reason explains the bijectivity verdict.
	Reason string `json:"reason"`
	// DeadBits lists variable key bits reaching no hash bit: entropy
	// the function provably drops. For linear families this includes
	// bits whose contributions cancel (extracted twice onto the same
	// hash bit), not just bits no load reads.
	DeadBits []BitRef `json:"dead_bits,omitempty"`
	// Funnels lists hash bits with xor fan-in ≥ 2 from distinct key
	// bits (linear families only).
	Funnels []Funnel `json:"funnels,omitempty"`
	// CollisionLog2 is a certified lower bound on log2 of the largest
	// preimage class over format keys: 0 means no collision is
	// certified (for bijective plans, none exists). For linear plans it
	// is the exact nullity of the provenance matrix; otherwise it
	// combines dead entropy with the 64-bit pigeonhole bound.
	CollisionLog2 int `json:"collision_log2"`
	// Counterexample, when non-nil, is a verified colliding key pair.
	Counterexample *Counterexample `json:"counterexample,omitempty"`
	// Findings lists structural IR violations — the translation-
	// validation layer VerifyPlan enforces. A sound plan has none.
	Findings []string `json:"findings,omitempty"`
	// Seeded reports the plan carries keying material (keyed.go). The
	// certificate never holds the material itself — only the seed's
	// disclosure-safe generation number.
	Seeded bool `json:"seeded,omitempty"`
	// SeedGen is the seed's generation number (seeded plans only).
	SeedGen uint64 `json:"seed_gen,omitempty"`
	// MixerRank is the GF(2) rank of the seed's post-mix matrix for
	// plans that apply it; 64 proves the post-mix is a bijection of the
	// hash space, so seeding preserves every injectivity result below.
	MixerRank int `json:"mixer_rank,omitempty"`
}

// Certify runs the full static analysis over a plan and returns its
// certificate. It never mutates the plan; the compiled closure used to
// validate counterexamples is built from an unexported compile that
// leaves the plan's recorded Backend untouched.
func Certify(p *Plan) *Certificate {
	c := &Certificate{
		Family: p.Family.String(),
		Regex:  p.Pattern.Regex(),
	}
	if p.Seed != nil {
		c.Seeded = true
		c.SeedGen = p.Seed.Gen
		if p.mixed() {
			cols := make([]uint64, 64)
			for b := 0; b < 64; b++ {
				cols[b] = p.Seed.Mix(1 << b)
			}
			c.MixerRank, _ = gf2(cols)
			if c.MixerRank != 64 {
				c.Findings = append(c.Findings, fmt.Sprintf(
					"core: certify: seed post-mix has rank %d, not a bijection", c.MixerRank))
			}
		}
	}
	if p.Fallback {
		c.Mode = "fallback"
		c.Reason = "format delegates to the standard-library hash; nothing synthesized to certify"
		return c
	}
	pat := p.Pattern
	c.VariableBits = pat.VarBitCount()
	switch {
	case len(p.Loads) == 1 && p.Loads[0].Partial != 0:
		c.Mode = "short"
	case p.Fixed:
		c.Mode = "fixed"
	default:
		c.Mode = "variable"
	}
	c.Linear = p.Family != Aes

	// Structural layer: the VerifyPlan invariants, as findings.
	if p.Fixed {
		c.Findings = append(c.Findings, structuralFixed(p, pat)...)
	} else {
		c.Findings = append(c.Findings, structuralVariable(p, pat)...)
	}

	// Dataflow layer: provenance of every variable key bit.
	prov, ok := provenanceOf(p, pat)
	if !ok {
		// Loads out of range: the closure would fall back (or fault),
		// so no execution-grounded certificate is possible.
		c.Reason = "loads read outside the key; dataflow analysis skipped"
		return c
	}
	c.TailBits = prov.tailBits

	if !c.Linear {
		certifyAes(c, p, pat, prov)
		return c
	}
	certifyLinear(c, p, pat, prov)
	return c
}

// provenance is the result of abstractly interpreting the plan's loads
// for a key of the guaranteed length: one GF(2) column per variable
// key bit of the load region, plus the set of bits left to the byte
// tail.
type provenance struct {
	// cols[i] is the xor of hash-bit vectors bit refs[i] reaches.
	cols []uint64
	// refs[i] identifies the variable key bit of column i.
	refs []BitRef
	// tailBits counts variable bits folded by the byte tail.
	tailBits int
	// aesCovered marks, for the AES family, which variable bits reach
	// the 128-bit state at all (indexed like refs/cols).
	aesCovered []bool
	// tailStart is the byte position where the tail loop begins (key
	// length for fixed plans).
	tailStart int
}

// keyLen returns the key length the analysis models: the fixed length
// for fixed plans, the guaranteed minimum for variable ones.
func keyLen(p *Plan) int {
	if p.Fixed {
		return p.KeyLen
	}
	return p.Pattern.MinLen
}

// activeLoads returns the loads the compiled closure executes for a
// key of the modeled length, mirroring Compile's dispatch: all loads
// for fixed plans; for variable plans, the skip loop until a load
// would cross the key end. The second result is the tail start.
func activeLoads(p *Plan, length int) ([]Load, int) {
	if p.Fixed {
		return p.Loads, length
	}
	if p.Family == Pext {
		// compileXorVariable's Pext branch: unrolled loads, loop breaks
		// at the first load crossing the key end.
		var ls []Load
		pos := 0
		for i := range p.Loads {
			if p.Loads[i].Offset+pattern.WordSize > length {
				pos = p.Loads[i].Offset
				break
			}
			ls = append(ls, p.Loads[i])
			pos = p.Loads[i].Offset + pattern.WordSize
		}
		return ls, pos
	}
	// The plain skip loop: cumulative offsets, whole-word loads.
	var ls []Load
	if len(p.Skip) == 0 {
		return nil, 0
	}
	pos := p.Skip[0]
	for c := 0; c < p.SkipLoads && pos+pattern.WordSize <= length; c++ {
		ls = append(ls, Load{Offset: pos, Mask: ^uint64(0)})
		if c+1 < len(p.Skip) {
			pos += p.Skip[c+1]
		} else {
			pos += pattern.WordSize
		}
	}
	return ls, pos
}

// provenanceOf probes each executed load's extraction network on
// single-bit inputs — l.extract is linear with extract(0) == 0, so
// extract(1<<b) is exactly the hash-bit vector word bit b reaches —
// and accumulates the per-key-bit columns by xor (a bit reaching the
// same hash bit twice cancels, as it does in the executed function).
// It reports ok=false when a load reads outside the modeled key.
func provenanceOf(p *Plan, pat *pattern.Pattern) (*provenance, bool) {
	length := keyLen(p)
	loads, tailStart := activeLoads(p, length)
	for i := range loads {
		width := pattern.WordSize
		if loads[i].Partial != 0 {
			width = loads[i].Partial
		}
		if loads[i].Offset < 0 || loads[i].Offset+width > length {
			return nil, false
		}
	}

	// Every variable bit of the guaranteed region gets a column, in key
	// order, so unread bits exist as zero columns (dead entropy); a
	// variable plan leaves the bits from tailStart on to the byte tail.
	limit := pat.MinLen
	if length < limit {
		limit = length
	}
	colEnd := limit
	if !p.Fixed && tailStart < colEnd {
		colEnd = max(tailStart, 0)
	}
	nvar := 0
	for pos := 0; pos < colEnd; pos++ {
		nvar += bits.OnesCount8(pat.Bytes[pos].VarBits())
	}
	pr := &provenance{
		tailStart:  tailStart,
		cols:       make([]uint64, nvar),
		refs:       make([]BitRef, 0, nvar),
		aesCovered: make([]bool, nvar),
	}
	for pos := colEnd; pos < limit; pos++ {
		pr.tailBits += bits.OnesCount8(pat.Bytes[pos].VarBits())
	}
	// col[8*pos+bit] is the column of key bit pos.bit: dense over the
	// column region, and filled for its variable bits only.
	col := make([]int32, 8*colEnd)
	for pos := 0; pos < colEnd; pos++ {
		vb := pat.Bytes[pos].VarBits()
		for bit := 0; bit < 8; bit++ {
			if vb&(1<<bit) != 0 {
				col[8*pos+bit] = int32(len(pr.refs))
				pr.refs = append(pr.refs, BitRef{Byte: pos, Bit: bit})
			}
		}
	}
	aes := p.Family == Aes
	for li := range loads {
		l := &loads[li]
		width := pattern.WordSize
		if l.Partial != 0 {
			width = l.Partial
		}
		// The loads lie inside the modeled key (checked above), so a
		// variable bit they read is below colEnd unless the tail owns it.
		for b := 0; b < 8*width; b++ {
			pos := l.Offset + b/8
			if pos >= colEnd {
				continue // beyond the guaranteed region, or tail-owned
			}
			if pat.Bytes[pos].VarBits()&(1<<(b%8)) == 0 {
				continue // constant bit: contributes a constant, no column
			}
			i := col[8*pos+b%8]
			if aes {
				// Full words feed the 128-bit state unmasked; one AES
				// round is modeled as full diffusion, so reaching the
				// state at all is what matters.
				pr.aesCovered[i] = true
				continue
			}
			pr.cols[i] ^= l.extract(uint64(1) << b)
		}
	}
	return pr, true
}

// gf2 runs column-space Gaussian elimination over the provenance
// columns, returning the rank and, when the columns are dependent, one
// kernel combination (the set of column indices whose xor is zero).
func gf2(cols []uint64) (rank int, kernel []int) {
	// Combinations are tracked as bitsets over the column indices, so
	// that xoring a pivot's combination in is O(len(cols)/64) and the
	// mod-2 cancellation of repeated indices is the xor itself. (Index
	// slices would grow multiplicatively along dense reduction chains —
	// the structured provenance columns keep them short, but a seeded
	// plan's post-mix columns are dense enough to blow up.) At most 64
	// pivots exist, so their combinations share one backing array.
	words := (len(cols) + 63) / 64
	type pivot struct {
		vec uint64
		cmb []uint64
	}
	var pivots [64]pivot // cmb == nil: no pivot yet
	backing := make([]uint64, min(len(cols), 64)*words)
	cmb := make([]uint64, words)
	for j, v := range cols {
		for i := range cmb {
			cmb[i] = 0
		}
		cmb[j>>6] = 1 << uint(j&63)
		for v != 0 {
			pb := bits.Len64(v) - 1
			pv := &pivots[pb]
			if pv.cmb == nil {
				pv.vec, pv.cmb = v, backing[rank*words:(rank+1)*words]
				copy(pv.cmb, cmb)
				rank++
				break
			}
			v ^= pv.vec
			for i, w := range pv.cmb {
				cmb[i] ^= w
			}
		}
		if v == 0 && kernel == nil {
			for i, w := range cmb {
				for ; w != 0; w &= w - 1 {
					kernel = append(kernel, i*64+bits.TrailingZeros64(w))
				}
			}
		}
	}
	return rank, kernel
}

// certifyLinear fills in the certificate for the GF(2)-linear families
// from the provenance matrix: rank, dead bits, funnels, the certified
// collision bound and — on a rank deficit — an executed counterexample.
func certifyLinear(c *Certificate, p *Plan, pat *pattern.Pattern, pr *provenance) {
	// A seeded plan's executable is Mix(h0) ^ C: affine in the key bits
	// with provenance columns Mix(col). The post-mix is invertible
	// (rank-certified above), so rank, kernel and dead bits are
	// untouched in principle — but the certificate analyzes the columns
	// the executable actually exhibits, and the counterexample path
	// below executes the seeded closure, keeping the proof grounded in
	// the code that runs.
	cols := pr.cols
	if p.mixed() {
		cols = make([]uint64, len(pr.cols))
		for i, v := range pr.cols {
			cols[i] = p.Seed.Mix(v)
		}
	}
	rank, kernel := gf2(cols)
	c.Rank = rank
	for i, v := range cols {
		if v == 0 {
			c.DeadBits = append(c.DeadBits, pr.refs[i])
		}
	}
	var fan [64]int
	for _, v := range cols {
		for v != 0 {
			b := bits.TrailingZeros64(v)
			fan[b]++
			v &^= 1 << b
		}
	}
	for b, n := range fan {
		if n >= 2 {
			c.Funnels = append(c.Funnels, Funnel{HashBit: b, FanIn: n})
		}
	}
	nullity := len(pr.cols) - rank
	c.CollisionLog2 = nullity
	if !p.Fixed && c.VariableBits > 64 && c.CollisionLog2 < c.VariableBits-64 {
		// Pigeonhole over the whole format, tail included.
		c.CollisionLog2 = c.VariableBits - 64
	}

	switch {
	case len(c.Findings) > 0:
		c.Reason = "structural findings refute the plan's invariants"
	case !p.Fixed:
		c.Reason = "variable-length plan: the byte-tail fold is outside the linear certificate"
	case c.VariableBits > 64:
		c.Reason = fmt.Sprintf("%d variable bits cannot inject into 64 hash bits", c.VariableBits)
	case nullity > 0:
		c.Reason = fmt.Sprintf("provenance matrix has rank %d over %d variable bits", rank, len(pr.cols))
	default:
		c.Bijective = true
		c.Reason = fmt.Sprintf("all %d variable bits map to distinct hash bits (full column rank)", rank)
	}
	if len(kernel) > 0 {
		flips := make([]BitRef, len(kernel))
		for i, j := range kernel {
			flips[i] = pr.refs[j]
		}
		c.Counterexample = buildCounterexample(p, pat, flips)
		if c.Counterexample == nil {
			c.Findings = append(c.Findings,
				"core: certify: kernel vector did not reproduce a collision (model/executable mismatch)")
		}
	}
}

// certifyAes fills in the certificate for the AES family: the round is
// modeled as full diffusion, so the certifiable properties are dead
// entropy (bits no load feeds into the state) and the pigeonhole
// bound; bijectivity is never certified because the 128→64-bit fold
// after the final round has no injectivity proof.
func certifyAes(c *Certificate, p *Plan, pat *pattern.Pattern, pr *provenance) {
	var flips []BitRef
	for i, covered := range pr.aesCovered {
		if !covered {
			c.DeadBits = append(c.DeadBits, pr.refs[i])
			flips = append(flips, pr.refs[i])
		}
	}
	c.CollisionLog2 = len(c.DeadBits)
	if c.VariableBits > 64 && c.CollisionLog2 < c.VariableBits-64 {
		c.CollisionLog2 = c.VariableBits - 64
	}
	c.Reason = "aes round modeled as full diffusion; the 128→64-bit fold has no injectivity certificate"
	if len(flips) > 0 {
		// Flipping only dead bits leaves every loaded word unchanged,
		// so the collision survives the nonlinear mixing.
		c.Counterexample = buildCounterexample(p, pat, flips[:1])
		if c.Counterexample == nil {
			c.Findings = append(c.Findings,
				"core: certify: dead-bit flip did not reproduce a collision (model/executable mismatch)")
		}
	}
}

// buildCounterexample constructs two format keys of the modeled length
// differing exactly in the given variable bits, and verifies the
// collision by executing the plan's compiled closure. It returns nil
// if the keys fail to collide — the caller records that as a finding,
// since it means the abstract model and the executable disagree.
func buildCounterexample(p *Plan, pat *pattern.Pattern, flips []BitRef) *Counterexample {
	length := keyLen(p)
	base := make([]byte, length)
	for i := 0; i < length; i++ {
		// Constant bits at their fixed values, variable bits zero: a
		// member of the (quad-widened) format by construction.
		base[i] = pat.Bytes[i].Value
	}
	flipped := append([]byte(nil), base...)
	for _, f := range flips {
		if f.Byte < 0 || f.Byte >= length {
			return nil
		}
		flipped[f.Byte] ^= 1 << f.Bit
	}
	k1, k2 := string(base), string(flipped)
	if k1 == k2 || !pat.Matches(k1) || !pat.Matches(k2) {
		return nil
	}
	fn, _ := p.compile()
	h1, h2 := fn(k1), fn(k2)
	if h1 != h2 {
		return nil
	}
	return &Counterexample{Key1: k1, Key2: k2, Hash: h1}
}

// structuralFixed re-derives the fixed-plan invariants from the
// pattern (the former verifyFixed), accumulating findings instead of
// stopping at the first violation.
func structuralFixed(p *Plan, pat *pattern.Pattern) []string {
	var fs []string
	covered := make([]bool, pat.MaxLen)
	maskBits := 0
	var windows uint64
	windowsDisjoint := true
	for i := range p.Loads {
		l := &p.Loads[i]
		width := pattern.WordSize
		if l.Partial != 0 {
			width = l.Partial
		}
		if l.Offset < 0 || l.Offset+width > pat.MaxLen {
			fs = append(fs, fmt.Sprintf("core: verify: load %d [%d,%d) outside key of %d bytes",
				i, l.Offset, l.Offset+width, pat.MaxLen))
			continue
		}
		for j := 0; j < width; j++ {
			covered[l.Offset+j] = true
		}
		if l.ext == nil {
			continue
		}
		// Mask bits must be variable bits of the pattern, each selected
		// exactly once across loads.
		for j := 0; j < width; j++ {
			pos := l.Offset + j
			mb := byte(l.Mask >> (8 * j))
			if mb&^pat.Bytes[pos].VarBits() != 0 {
				fs = append(fs, fmt.Sprintf("core: verify: load %d mask selects constant bits of byte %d", i, pos))
			}
		}
		n := l.ext.Bits()
		maskBits += n
		if n < 64 {
			w := (uint64(1)<<uint(n) - 1)
			w = bits.RotateLeft64(w, int(l.Shift))
			if windows&w != 0 {
				windowsDisjoint = false
			}
			windows |= w
		} else {
			windowsDisjoint = len(p.Loads) == 1
		}
	}
	// Double selection needs byte-position granularity because loads
	// overlap: recompute the union and compare popcounts.
	if p.Family == Pext && len(p.Loads) > 0 {
		seen := make([]byte, pat.MaxLen)
		var outside map[int]byte // bytes of loads reaching outside the key
		total := 0
		for i := range p.Loads {
			l := &p.Loads[i]
			for j := 0; j < pattern.WordSize; j++ {
				mb := byte(l.Mask >> (8 * j))
				if mb == 0 {
					continue
				}
				pos := l.Offset + j
				var prev byte
				if pos >= 0 && pos < len(seen) {
					prev = seen[pos]
					seen[pos] |= mb
				} else {
					if outside == nil {
						outside = map[int]byte{}
					}
					prev = outside[pos]
					outside[pos] |= mb
				}
				if prev&mb != 0 {
					fs = append(fs, fmt.Sprintf("core: verify: bit of key byte %d extracted twice", pos))
				}
				total += bits.OnesCount8(mb)
			}
		}
		if total != pat.VarBitCount() {
			fs = append(fs, fmt.Sprintf("core: verify: masks select %d bits, pattern has %d variable bits",
				total, pat.VarBitCount()))
		}
		if maskBits != p.HashBits {
			fs = append(fs, fmt.Sprintf("core: verify: HashBits %d ≠ mask bits %d", p.HashBits, maskBits))
		}
		if p.HashBits <= 64 && !windowsDisjoint {
			fs = append(fs, "core: verify: ≤64-bit plan has overlapping rotation windows")
		}
	}
	// Coverage: every variable byte of the guaranteed region.
	for i := 0; i < pat.MinLen; i++ {
		if !pat.Bytes[i].Const() && !covered[i] {
			fs = append(fs, fmt.Sprintf("core: verify: variable byte %d not covered by any load", i))
		}
	}
	return fs
}

// structuralVariable re-derives the skip-table invariants (the former
// verifyVariable) as findings.
func structuralVariable(p *Plan, pat *pattern.Pattern) []string {
	var fs []string
	if len(p.Skip) != p.SkipLoads+1 {
		return append(fs, fmt.Sprintf("core: verify: skip table has %d entries for %d loads",
			len(p.Skip), p.SkipLoads))
	}
	pos := p.Skip[0]
	if pos < 0 {
		return append(fs, fmt.Sprintf("core: verify: negative initial skip %d", pos))
	}
	covered := make([]bool, pat.MinLen)
	for c := 0; c < p.SkipLoads; c++ {
		if pos+pattern.WordSize > pat.MinLen {
			return append(fs, fmt.Sprintf("core: verify: skip load %d at %d exceeds MinLen %d",
				c, pos, pat.MinLen))
		}
		for j := 0; j < pattern.WordSize; j++ {
			covered[pos+j] = true
		}
		stride := p.Skip[c+1]
		if stride <= 0 {
			return append(fs, fmt.Sprintf("core: verify: non-positive skip stride %d", stride))
		}
		pos += stride
	}
	// Bytes after the last load are the byte tail's job; everything
	// before it that varies must be load-covered (Naive exempts
	// itself: it covers whole words from 0 and leaves the unaligned
	// rest to the tail).
	lastCovered := 0
	for i, c := range covered {
		if c {
			lastCovered = i + 1
		}
	}
	if p.Family != Naive {
		for i := 0; i < lastCovered; i++ {
			if !pat.Bytes[i].Const() && !covered[i] {
				fs = append(fs, fmt.Sprintf("core: verify: variable byte %d skipped before the tail", i))
			}
		}
	}
	return fs
}
