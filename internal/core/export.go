package core

import (
	"fmt"

	"github.com/sepe-go/sepe/internal/pext"
)

// This file is the plan IR's export surface: the hooks the wire
// encoding (internal/wire) needs to rebuild a Plan from decoded fields
// and compile it through the ordinary backend dispatch. Everything
// here handles *structural* plan state only — the keying slot
// (PlanSeed) is deliberately absent from the surface, because seeds
// are per-process secrets that must never leave the process
// (DESIGN.md §11); a deserialized plan is reseeded locally via
// Options.Seed, never transported.

// NewLoad rebuilds one load of a deserialized plan. extracted reports
// whether the original load carried a compiled extraction network;
// when set, the network is recompiled here from the mask — extraction
// closures are process-local (they bake in the CPU tier decision), so
// the wire format ships the mask and the flag, not the closure.
func NewLoad(offset, partial int, mask uint64, shift uint, extracted bool) Load {
	l := Load{Offset: offset, Partial: partial, Mask: mask, Shift: shift}
	if extracted {
		l.ext = pext.Compile(mask)
	}
	return l
}

// FromPlan validates and compiles a plan built outside the synthesis
// pipeline — the wire decoder's path into the ordinary backend
// dispatch. The plan runs the same translation-validation gate as
// freshly synthesized ones (VerifyPlan, i.e. the certifier's
// structural findings), so corrupted or hand-forged plans fail loudly
// here instead of shipping as silently weaker hash functions; Compile
// then selects the execution tier from this process's CPU features,
// which may differ from the encoding process's.
//
// Options are honored as in Synthesize: a Seed keys the compiled
// function locally (the decoded plan never carries one), and
// RequireBijective gates on the certifier's proof.
func FromPlan(p *Plan, opts Options) (*Fn, error) {
	if p == nil {
		return nil, ErrNilPattern
	}
	if p.Pattern == nil {
		return nil, ErrNilPattern
	}
	if err := p.Pattern.Validate(); err != nil {
		return nil, err
	}
	if opts.Seed != nil {
		p.Seed = deriveSeed(opts.Seed, opts.Recorder)
	}
	// One certificate serves both gates. The seed's post-mix is
	// rank-certified at derivation and preserves the plan's rank, so
	// certifying the keyed plan reaches the unkeyed plan's verdicts.
	c := Certify(p)
	if err := refuted(c); err != nil {
		return nil, fmt.Errorf("core: deserialized plan rejected: %w", err)
	}
	if opts.RequireBijective && !c.Bijective {
		return nil, fmt.Errorf("%w: %s", ErrNotBijective, c.Reason)
	}
	hash := p.Compile()
	return &Fn{plan: p, hash: hash}, nil
}

// CertDigest returns a 64-bit digest of the plan's certificate — the
// verdict the certifier reaches about the *unseeded* structural plan
// (seeding is stripped before certification so the digest is stable
// across seed rotations and processes). The wire format stamps it
// into every exported plan; the decoder recomputes it after rebuilding
// the plan and rejects the bytes on mismatch, which catches exactly
// the corruptions that survive structural validation but change what
// the function provably guarantees (rank, bijectivity, dead entropy,
// collision bounds).
func CertDigest(p *Plan) uint64 {
	q := *p
	q.Seed = nil
	c := Certify(&q)
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(v>>(8*i)))) * prime64
		}
	}
	mixBool := func(b bool) {
		if b {
			mix64(1)
		} else {
			mix64(0)
		}
	}
	mix64(uint64(len(c.Family)))
	for i := 0; i < len(c.Family); i++ {
		mix64(uint64(c.Family[i]))
	}
	mix64(uint64(c.VariableBits))
	mixBool(c.Linear)
	mix64(uint64(c.Rank))
	mix64(uint64(c.TailBits))
	mixBool(c.Bijective)
	mix64(uint64(c.CollisionLog2))
	mix64(uint64(len(c.DeadBits)))
	for _, b := range c.DeadBits {
		mix64(uint64(b.Byte))
		mix64(uint64(b.Bit))
	}
	mix64(uint64(len(c.Funnels)))
	for _, f := range c.Funnels {
		mix64(uint64(f.HashBit))
		mix64(uint64(f.FanIn))
	}
	return h
}
