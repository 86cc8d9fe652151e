// Package core implements SEPE's code generation pipeline (Section 3.2
// of "Automatic Synthesis of Specialized Hash Functions", CGO 2025):
// given a key-format pattern, it synthesizes a specialized hash
// function of one of the four families the paper evaluates.
//
// The pipeline mirrors the paper's Figure 7:
//
//	ranges    := parseRanges(key)                  // pattern analysis
//	offsets   := ignoreConstantSubsequences(ranges) // skip table / loads
//	masks     := calculateMasks(key, offsets)       // pext masks
//	hashables := removeConstBits(masks, ...)        // extraction + shifts
//	hashFunc  := unrollSequences(hashables)         // plan compilation
//
// The output of synthesis is a Plan — a small dataflow program of
// selective 8-byte loads, optional parallel bit extractions, shifts
// and a combiner — which is compiled to a Go closure for execution and
// handed to package codegen for source emission.
//
// Families, in increasing order of specialization (the paper's
// Figure 3):
//
//	Naive  — xor of all 8-byte chunks; exploits fixed length only.
//	OffXor — xor of only the chunks containing variable bytes.
//	Aes    — OffXor loads combined with an AES encryption round.
//	Pext   — OffXor loads with constant bits compressed away and the
//	         survivors spread over the 64-bit range.
package core

import (
	"errors"
	"fmt"

	"github.com/sepe-go/sepe/internal/seed"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// Family identifies one of the four synthesized function families.
type Family int

const (
	// Naive applies an xor-based hash to all key bytes, 8 at a time.
	Naive Family = iota
	// OffXor loads only the bytes that vary between keys.
	OffXor
	// Aes combines the OffXor loads with an AES encryption round.
	Aes
	// Pext removes constant bits via parallel bit extraction.
	Pext
)

// Families lists all four families in the paper's order.
var Families = []Family{Naive, OffXor, Aes, Pext}

// String returns the paper's name for the family.
func (f Family) String() string {
	switch f {
	case Naive:
		return "Naive"
	case OffXor:
		return "OffXor"
	case Aes:
		return "Aes"
	case Pext:
		return "Pext"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// Target describes the architecture the function is synthesized for.
// It gates which families are available: the paper's aarch64 device
// (RQ4) lacks the bext instruction, leaving the Pext family out.
type Target struct {
	// Name identifies the target in diagnostics and generated code.
	Name string
	// BitExtract reports whether the target has a parallel
	// bit-extract instruction (x86 pext, aarch64 bext).
	BitExtract bool
	// AESRound reports whether the target has a one-round AES
	// instruction (x86 aesenc, aarch64 AESE).
	AESRound bool
}

// The targets of the paper's evaluation.
var (
	// TargetX86 is the Xeon configuration of Section 4: pext and
	// aesenc both available.
	TargetX86 = Target{Name: "x86-64", BitExtract: true, AESRound: true}
	// TargetAarch64 is the Jetson configuration of RQ4: AESE but no
	// bext, so Pext cannot be synthesized.
	TargetAarch64 = Target{Name: "aarch64", BitExtract: false, AESRound: true}
)

// Supports reports whether the target can execute family f.
func (t Target) Supports(f Family) bool {
	switch f {
	case Pext:
		return t.BitExtract
	case Aes:
		return t.AESRound
	default:
		return true
	}
}

// Backend identifies the execution tier a plan was compiled to. The
// repository executes synthesized functions on a three-tier stack:
// single-instruction hardware kernels (PEXTQ/AESENC, selected once at
// compile time via internal/cpu feature detection), the portable
// compiled software networks (shift/mask extraction, T-table AES),
// and — for formats too short to specialize — the standard-library
// fallback hash. The bit-at-a-time reference implementations in
// internal/pext and internal/aesround are not a runtime tier; they
// are the differential-testing oracle all tiers are checked against.
type Backend int

const (
	// BackendSoftware is the portable tier: compiled shift/mask
	// networks and the T-table AES round.
	BackendSoftware Backend = iota
	// BackendHardware means the closure executes at least one
	// single-instruction kernel (PEXTQ or AESENC).
	BackendHardware
	// BackendFallback means the plan delegates to the
	// standard-library hash (format shorter than a machine word).
	BackendFallback
)

// String names the backend for reports and tool output.
func (b Backend) String() string {
	switch b {
	case BackendSoftware:
		return "software"
	case BackendHardware:
		return "hardware"
	case BackendFallback:
		return "fallback"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Options configure synthesis.
type Options struct {
	// Target selects the architecture; the zero value means TargetX86.
	Target Target
	// AllowShort forces synthesis for formats shorter than 8 bytes.
	// By default such formats fall back to the standard-library hash
	// (the paper's footnote 5: "SEPE defaults to the standard STL
	// function for keys with fewer than eight bytes"); RQ7's
	// four-digit worst-case experiment needs the forced path.
	AllowShort bool
	// Recorder, when non-nil, records a timed span event for each
	// synthesis phase (planning, pext mask lowering, verification,
	// compilation) with per-phase attributes such as load counts and
	// variable bits.
	Recorder *telemetry.Recorder
	// RequireBijective makes Synthesize fail with ErrNotBijective
	// unless the certifier proves the plan maps distinct format keys
	// to distinct hashes. The check runs the full GF(2) rank analysis
	// (Certify), so it also admits plans — such as single-word OffXor
	// over a ≤64-bit format — that the conservative Plan.Bijective
	// predicate cannot see.
	RequireBijective bool
	// Seed, when non-nil, keys the synthesized function: the linear
	// families gain a secret full-rank affine GF(2) post-mix, the Aes
	// family gets seed-derived round keys (see keyed.go). Hash values
	// then depend on the seed, which defeats offline collision mining
	// by attackers who know the key format but not the seed.
	// Bijectivity certificates are preserved — the post-mix is itself
	// rank-certified at derivation time.
	Seed *seed.Seed
}

var (
	// ErrUnsupported reports a family the target cannot execute.
	ErrUnsupported = errors.New("core: family not supported by target")
	// ErrNilPattern reports a missing pattern.
	ErrNilPattern = errors.New("core: nil pattern")
	// ErrNotBijective reports that Options.RequireBijective was set
	// but the certifier could not prove the plan collision-free.
	ErrNotBijective = errors.New("core: plan not certified bijective")
)
