package core

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/sepe-go/sepe/internal/pattern"
	"github.com/sepe-go/sepe/internal/pext"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// Load is one 8-byte (or shorter) load of the synthesized function,
// with its optional bit extraction and packing shift.
type Load struct {
	// Offset is the byte offset of the load within the key.
	Offset int
	// Partial is the number of bytes to load when fewer than a full
	// word remain (short-key plans only); 0 means a full 8-byte load.
	Partial int
	// Mask is the pext mask applied to the loaded word; ^0 for the
	// families that keep every bit.
	Mask uint64
	// Shift is the left rotation applied after extraction so the
	// extracted bits land in their slot of the 64-bit hash. For plans
	// whose extractions fit in 64 bits the rotation degenerates to a
	// plain shift (nothing crosses bit 63); beyond 64 bits the
	// rotation folds the spill back into the low bits instead of
	// silently dropping it.
	Shift uint
	// ext is the compiled extraction network for Mask (nil when the
	// mask keeps every bit).
	ext *pext.Extractor
}

// extract applies the load's extraction and packing rotation to a
// loaded word.
func (l *Load) extract(w uint64) uint64 {
	if l.ext != nil {
		w = l.ext.Extract(w)
	}
	return bits.RotateLeft64(w, int(l.Shift))
}

// Extractor exposes the compiled extraction network (nil when the load
// keeps every bit); the code generator renders it as shift/mask ops.
func (l *Load) Extractor() *pext.Extractor { return l.ext }

// Plan is the synthesized dataflow program for one hash function.
type Plan struct {
	// Family is the function family the plan implements.
	Family Family
	// Target is the architecture the plan was synthesized for.
	Target Target
	// Pattern is the key format the plan is specialized to.
	Pattern *pattern.Pattern
	// Fixed reports whether the format has a single key length; fixed
	// plans unroll all loads (Section 3.2.2), variable plans use the
	// skip table (Section 3.2.1).
	Fixed bool
	// KeyLen is the key length of fixed plans.
	KeyLen int
	// Loads are the unrolled loads of fixed plans, in offset order.
	Loads []Load
	// Skip is the skip table of variable plans: Skip[0] is the offset
	// of the first load, subsequent entries are strides; the final
	// entry advances past the last load for the byte-tail loop.
	Skip []int
	// SkipLoads is the number of word loads of the skip loop.
	SkipLoads int
	// Fallback reports that the format was too short to specialize
	// and the plan delegates to the standard-library hash.
	Fallback bool
	// HashBits is the number of distinct key bits reaching the hash;
	// when ≤ 64 and the family is Pext, the function is a bijection
	// on the format (zero true collisions, Section 4.2).
	HashBits int
	// Backend records the execution tier Compile selected (hardware
	// kernels, software networks, or the standard-hash fallback).
	// It is set by Compile; a plan that was never compiled reports
	// BackendSoftware, the zero value.
	Backend Backend
	// Seed is the plan's keying slot (nil for unseeded plans): the
	// seed-derived affine post-mix and AES round keys of keyed.go.
	Seed *PlanSeed
}

// Bijective reports whether the plan provably maps distinct format
// keys to distinct hashes.
func (p *Plan) Bijective() bool {
	return p.Family == Pext && p.Fixed && !p.Fallback && p.HashBits <= 64
}

// BuildPlan runs the Figure 7 pipeline for one family over a pattern.
func BuildPlan(pat *pattern.Pattern, fam Family, opts Options) (*Plan, error) {
	if pat == nil {
		return nil, ErrNilPattern
	}
	var err error
	telemetry.Span(opts.Recorder, "plan", "plan.pattern", func() []telemetry.Attr {
		// A rejected pattern shows up in the trace too, not as a
		// truncated one.
		if err = pat.Validate(); err != nil {
			return []telemetry.Attr{telemetry.Str("error", err.Error())}
		}
		return []telemetry.Attr{telemetry.Int("min_len", pat.MinLen),
			telemetry.Int("max_len", pat.MaxLen),
			telemetry.Int("variable_bits", pat.VarBitCount())}
	})
	if err != nil {
		return nil, err
	}
	tgt := opts.Target
	if tgt.Name == "" {
		tgt = TargetX86
	}
	if !tgt.Supports(fam) {
		return nil, fmt.Errorf("%w: %v on %s", ErrUnsupported, fam, tgt.Name)
	}
	p := &Plan{
		Family:  fam,
		Target:  tgt,
		Pattern: pat,
		Fixed:   pat.FixedLen(),
		KeyLen:  pat.MaxLen,
	}
	switch {
	case pat.MinLen < pattern.WordSize && !opts.AllowShort:
		p.Fallback = true
	case pat.MinLen < pattern.WordSize:
		p, err = buildShortPlan(p, fam, opts.Recorder)
	case p.Fixed:
		p, err = buildFixedPlan(p, fam, opts.Recorder)
	default:
		p, err = buildVariablePlan(p, fam, opts.Recorder)
	}
	if err != nil {
		return nil, err
	}
	// Keying attaches after planning: the dataflow is the paper's, the
	// seed transforms only its output (or, for Aes, its round keys).
	if opts.Seed != nil {
		p.Seed = deriveSeed(opts.Seed, opts.Recorder)
	}
	return p, nil
}

// buildFixedPlan unrolls the loads of a fixed-length format
// (Section 3.2.2), and for Pext attaches masks and packing shifts
// (Section 3.2.3).
func buildFixedPlan(p *Plan, fam Family, rec *telemetry.Recorder) (*Plan, error) {
	pat := p.Pattern
	var offsets []int
	switch fam {
	case Naive:
		// Every byte, in whole words, tail overlapped at n-8.
		for o := 0; o+pattern.WordSize < pat.MaxLen; o += pattern.WordSize {
			offsets = append(offsets, o)
		}
		offsets = append(offsets, pat.MaxLen-pattern.WordSize)
	default:
		// Only words containing variable bytes.
		offsets = pat.LoadOffsets(true)
	}
	sort.Ints(offsets)

	if fam != Pext {
		for _, o := range offsets {
			p.Loads = append(p.Loads, Load{Offset: o, Mask: ^uint64(0)})
		}
		p.HashBits = pat.VarBitCount()
		return p, nil
	}

	// Pext: per-load masks excluding bytes already covered by earlier
	// loads (overlapping loads must not extract the same bit twice,
	// or the bijection breaks — compare the paper's Figure 12, where
	// the second SSN mask covers only the three bytes the first load
	// missed).
	telemetry.Span(rec, "plan", "plan.pext", func() []telemetry.Attr {
		covered := make([]bool, pat.MaxLen)
		var loads []Load
		total := 0
		for _, o := range offsets {
			var m uint64
			for i := 0; i < pattern.WordSize; i++ {
				pos := o + i
				if pos >= pat.MaxLen || covered[pos] {
					continue
				}
				covered[pos] = true
				m |= uint64(pat.Bytes[pos].VarBits()) << (8 * i)
			}
			if m == 0 {
				continue // load fully shadowed by earlier ones
			}
			loads = append(loads, Load{Offset: o, Mask: m, ext: pext.Compile(m)})
			total += bits.OnesCount64(m)
		}
		p.HashBits = total
		p.Loads = packShifts(loads, total)
		return []telemetry.Attr{telemetry.Int("masks", len(loads)), telemetry.Int("extracted_bits", total)}
	})
	return p, nil
}

// packShifts assigns the packing shifts of Section 3.2.3 ("shift
// significant bits as far to the left as possible"). When the
// extracted bits fit in 64, the first extraction stays at the bottom,
// middle extractions pack contiguously above it, and the last is
// pushed against bit 63 so the hash spans the entire 64-bit range
// (Figure 12 assigns the SSN's trailing 12 bits the shift 52). When
// they do not fit, extractions tile modulo 64 and fold by xor.
func packShifts(loads []Load, total int) []Load {
	if len(loads) == 0 {
		return loads
	}
	if total <= 64 {
		cum := 0
		for i := range loads {
			n := loads[i].ext.Bits()
			if i == len(loads)-1 && i > 0 {
				loads[i].Shift = uint(64 - n)
			} else {
				loads[i].Shift = uint(cum)
			}
			cum += n
		}
		return loads
	}
	cum := 0
	for i := range loads {
		loads[i].Shift = uint(cum % 64)
		cum += loads[i].ext.Bits()
	}
	return loads
}

// buildVariablePlan builds the skip-table loop of Section 3.2.1 for
// formats whose keys vary in length.
func buildVariablePlan(p *Plan, fam Family, rec *telemetry.Recorder) (*Plan, error) {
	pat := p.Pattern
	if fam == Naive {
		// Naive ignores constants entirely: whole-key chunk loop.
		p.Skip = []int{0}
		n := 0
		for o := 0; o+pattern.WordSize <= pat.MinLen; o += pattern.WordSize {
			p.Skip = append(p.Skip, pattern.WordSize)
			n++
		}
		p.SkipLoads = n
		p.HashBits = 8 * pat.MinLen
		return p, nil
	}
	skip, n := pat.SkipTable()
	p.Skip = skip
	p.SkipLoads = n
	p.HashBits = pat.VarBitCount()
	if fam == Pext {
		// Attach an extractor per load so constant bits vanish from
		// the loop too. Loads are at cumulative skip offsets.
		telemetry.Span(rec, "plan", "plan.pext", func() []telemetry.Attr {
			off := 0
			cum := 0
			for c := 0; c < n; c++ {
				off += skipAt(skip, c)
				m := pat.WordMask(off)
				if m == 0 {
					m = ^uint64(0)
				}
				e := pext.Compile(m)
				p.Loads = append(p.Loads, Load{
					Offset: off,
					Mask:   m,
					Shift:  uint(cum % 64),
					ext:    e,
				})
				cum += e.Bits()
			}
			return []telemetry.Attr{telemetry.Int("masks", len(p.Loads))}
		})
	}
	return p, nil
}

func skipAt(skip []int, c int) int {
	if c < len(skip) {
		return skip[c]
	}
	return pattern.WordSize
}

// buildShortPlan handles formats shorter than a word when the caller
// explicitly allows it (RQ7's four-digit keys): one partial load.
func buildShortPlan(p *Plan, fam Family, rec *telemetry.Recorder) (*Plan, error) {
	pat := p.Pattern
	n := pat.MinLen
	if n == 0 {
		p.Fallback = true
		return p, nil
	}
	l := Load{Offset: 0, Partial: n, Mask: ^uint64(0)}
	if fam == Pext {
		telemetry.Span(rec, "plan", "plan.pext", func() []telemetry.Attr {
			var m uint64
			for i := 0; i < n; i++ {
				m |= uint64(pat.Bytes[i].VarBits()) << (8 * i)
			}
			if m == 0 {
				m = ^uint64(0)
			}
			l.Mask = m
			l.ext = pext.Compile(m)
			p.HashBits = l.ext.Bits()
			return []telemetry.Attr{telemetry.Int("masks", 1), telemetry.Int("extracted_bits", p.HashBits)}
		})
	} else {
		p.HashBits = 8 * n
	}
	p.Fixed = pat.FixedLen()
	p.Loads = []Load{l}
	return p, nil
}
