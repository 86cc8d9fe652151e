package core

import (
	"fmt"

	"github.com/sepe-go/sepe/internal/pattern"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// Fn is a synthesized hash function: the compiled closure plus the
// plan it was compiled from, which documents the function and feeds
// the source-code generator.
type Fn struct {
	plan *Plan
	hash Func
}

// Synthesize builds a specialized hash function of the given family
// for the key format pat. Every plan passes the translation-validation
// checker (VerifyPlan) before compilation, so planner bugs fail here
// rather than ship as silently weaker hash functions.
func Synthesize(pat *pattern.Pattern, fam Family, opts Options) (*Fn, error) {
	family := telemetry.Str("family", fam.String())
	var plan *Plan
	var err error
	telemetry.Span(opts.Recorder, "synth", "synth.plan", func() []telemetry.Attr {
		if plan, err = BuildPlan(pat, fam, opts); err != nil {
			return []telemetry.Attr{telemetry.Str("error", err.Error())}
		}
		return []telemetry.Attr{telemetry.Int("loads", len(plan.Loads)),
			telemetry.Int("variable_bits", plan.HashBits),
			telemetry.Bool("fallback", plan.Fallback),
			telemetry.Bool("seeded", plan.Seed != nil)}
	}, family)
	if err != nil {
		return nil, err
	}
	telemetry.Span(opts.Recorder, "synth", "synth.verify", func() []telemetry.Attr {
		// One certificate serves both gates: VerifyPlan's structural
		// check and the optional bijectivity proof.
		c := Certify(plan)
		if err = refuted(c); err != nil {
			return []telemetry.Attr{telemetry.Str("error", err.Error())}
		}
		if !opts.RequireBijective || c.Bijective {
			return nil
		}
		err = fmt.Errorf("%w: %s", ErrNotBijective, c.Reason)
		attrs := []telemetry.Attr{telemetry.Str("error", err.Error())}
		if c.Counterexample != nil {
			// Counterexample keys are user data: mark them sensitive
			// so trace exports route them through the installed
			// redactor, like the SLO exemplars.
			attrs = append(attrs,
				telemetry.Sensitive("counterexample_key1", c.Counterexample.Key1),
				telemetry.Sensitive("counterexample_key2", c.Counterexample.Key2))
		}
		return attrs
	}, family)
	if err != nil {
		return nil, err
	}
	var hash Func
	telemetry.Span(opts.Recorder, "synth", "synth.compile", func() []telemetry.Attr {
		hash = plan.Compile()
		return []telemetry.Attr{telemetry.Bool("bijective", plan.Bijective())}
	}, family)
	return &Fn{plan: plan, hash: hash}, nil
}

// SynthesizeAll builds one function per family the target supports.
func SynthesizeAll(pat *pattern.Pattern, opts Options) (map[Family]*Fn, error) {
	tgt := opts.Target
	if tgt.Name == "" {
		tgt = TargetX86
	}
	out := make(map[Family]*Fn, len(Families))
	for _, fam := range Families {
		if !tgt.Supports(fam) {
			continue
		}
		fn, err := Synthesize(pat, fam, opts)
		if err != nil {
			return nil, fmt.Errorf("core: synthesizing %v: %w", fam, err)
		}
		out[fam] = fn
	}
	return out, nil
}

// Hash applies the synthesized function to key. Behaviour is only
// specified for keys matching the pattern the function was synthesized
// for; other keys still hash deterministically but may collide more.
func (f *Fn) Hash(key string) uint64 { return f.hash(key) }

// HashBatch hashes keys[i] into out[i] for every i. The compiled
// closure (and its captured plan constants) is loaded once for the
// whole batch instead of once per call, which is what the sharded
// containers' batch operations amortize. out must be at least as long
// as keys. Results are bit-identical to per-key Hash calls.
func (f *Fn) HashBatch(keys []string, out []uint64) {
	h := f.hash
	out = out[:len(keys)]
	for i, k := range keys {
		out[i] = h(k)
	}
}

// Func returns the compiled closure, for registering in hash tables.
func (f *Fn) Func() Func { return f.hash }

// Plan returns the synthesis plan.
func (f *Fn) Plan() *Plan { return f.plan }

// Family returns the function's family.
func (f *Fn) Family() Family { return f.plan.Family }

// Pattern returns the key format the function is specialized to.
func (f *Fn) Pattern() *pattern.Pattern { return f.plan.Pattern }

// Matches reports whether key belongs to the function's format.
func (f *Fn) Matches(key string) bool { return f.plan.Pattern.Matches(key) }

// Backend returns the execution tier the function was compiled to.
func (f *Fn) Backend() Backend { return f.plan.Backend }

// String summarizes the function.
func (f *Fn) String() string {
	p := f.plan
	switch {
	case p.Fallback:
		return fmt.Sprintf("%v[fallback→STL, %s]", p.Family, p.Pattern.Regex())
	case p.Fixed:
		return fmt.Sprintf("%v[fixed len=%d loads=%d bits=%d]",
			p.Family, p.KeyLen, len(p.Loads), p.HashBits)
	default:
		return fmt.Sprintf("%v[variable len=[%d,%d] skip=%v]",
			p.Family, p.Pattern.MinLen, p.Pattern.MaxLen, p.Skip)
	}
}
