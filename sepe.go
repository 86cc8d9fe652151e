// Package sepe synthesizes hash functions specialized to particular
// byte formats, reproducing "Automatic Synthesis of Specialized Hash
// Functions" (CGO 2025).
//
// The library's two front ends mirror the paper's Figure 5: a format
// can be inferred from example keys (Infer) or written as a restricted
// regular expression (ParseRegex). Synthesize then generates a hash
// function of one of four families — Naive, OffXor, Aes, Pext — in
// increasing order of specialization. The synthesized functions plug
// into the package's hash containers (Map, Set, MultiMap, MultiSet),
// which mirror the std::unordered_* containers the paper benchmarks.
//
// A container is one composition. NewMap, NewSet, NewMultiMap and
// NewMultiSet pick the kind; the hash source is a HashFunc, or an
// *AdaptiveHash, which makes the container follow the hash's
// self-healing swaps with an incremental re-bucket; Sharded(n) makes
// it safe for concurrent use by lock striping; Observed(reg, name)
// feeds its operations to metrics. Every composition has the same
// methods:
//
//	m := sepe.NewMap[int](ah, sepe.Sharded(0), sepe.Observed(nil, "ssn"))
//
// A minimal session, equivalent to the paper's getting-started
// tutorial:
//
//	format, _ := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`) // SSNs
//	hash, _ := sepe.Synthesize(format, sepe.Pext)
//	m := sepe.NewMap[string](hash.Func())
//	m.Put("078-05-1120", "Woolworth")
//
// Synthesized functions trade dispersion for speed: they are not
// cryptographic, and low-mixing containers (those indexing buckets by
// a slice of the hash) should not be used with them — see the paper's
// RQ7 and the Bijective method.
package sepe

import (
	"errors"
	"fmt"

	"github.com/sepe-go/sepe/internal/codegen"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/hashes"
	"github.com/sepe-go/sepe/internal/infer"
	"github.com/sepe-go/sepe/internal/pattern"
	"github.com/sepe-go/sepe/internal/rex"
	"github.com/sepe-go/sepe/internal/rng"
	"github.com/sepe-go/sepe/internal/seed"
)

// HashFunc is a hash function over string keys.
type HashFunc = func(key string) uint64

// Family selects one of the four synthesized function families
// (Section 3.2 of the paper; Figure 3's specialization lattice).
type Family int

const (
	// Naive xors all key bytes, eight at a time, exploiting only the
	// fixed-length constraint.
	Naive Family = Family(core.Naive)
	// OffXor loads only bytes that differ between keys, skipping
	// constant subsequences.
	OffXor Family = Family(core.OffXor)
	// Aes combines the OffXor loads with an AES encryption round for
	// better dispersion at a small speed cost.
	Aes Family = Family(core.Aes)
	// Pext additionally compresses away constant bits with parallel
	// bit extraction; for formats with at most 64 variable bits the
	// result is collision-free.
	Pext Family = Family(core.Pext)
)

// Families lists all four families in the paper's order.
var Families = []Family{Naive, OffXor, Aes, Pext}

// String returns the paper's name of the family.
func (f Family) String() string { return core.Family(f).String() }

// Backend identifies the execution tier a synthesized function runs
// on. Functions execute on a three-tier stack: hardware kernels
// (BMI2 PEXT, AES-NI — selected once at synthesis time from CPU
// feature detection), the portable compiled software networks, and
// the standard-library fallback hash for formats too short to
// specialize. Set SEPE_NOHW=1 (or pext / aes, comma-separated) to
// pin synthesis to the software tier.
type Backend = core.Backend

// The execution tiers.
const (
	// BackendSoftware is the portable tier: compiled shift/mask
	// networks and the table-driven AES round.
	BackendSoftware = core.BackendSoftware
	// BackendHardware means the function executes at least one
	// single-instruction kernel (PEXT or AESENC).
	BackendHardware = core.BackendHardware
	// BackendFallback is the standard-library hash (format shorter
	// than a machine word).
	BackendFallback = core.BackendFallback
)

// Target describes the machine the function is synthesized for. The
// aarch64 target lacks a parallel bit-extract instruction, so the Pext
// family is unavailable there (the paper's RQ4).
type Target = core.Target

// Predefined targets.
var (
	TargetX86     = core.TargetX86
	TargetAarch64 = core.TargetAarch64
)

// Format is a key format: the set of admissible keys together with
// the per-position constant-bit information synthesis feeds on.
type Format struct {
	pat *pattern.Pattern
}

// Infer derives a Format from example keys via the quad-semilattice
// join of Section 3.1 (the keybuilder front end). Good example sets
// exercise, at every position, every character the format allows
// (Example 3.6: two well-chosen examples often suffice).
func Infer(examples []string) (*Format, error) {
	p, err := infer.Infer(examples)
	if err != nil {
		return nil, err
	}
	return &Format{pat: p}, nil
}

// ParseRegex parses a restricted regular expression into a Format.
// The dialect covers literals, escapes (\., \xNN, \d, \h, \w, \s),
// character classes, groups, alternation and bounded repetition
// ({n}, {n,m}, ?). Unbounded repetition is rejected: a format without
// a length bound admits no specialization.
func ParseRegex(expr string) (*Format, error) {
	p, err := rex.ParseAndLower(expr)
	if err != nil {
		return nil, err
	}
	return &Format{pat: p}, nil
}

// Regex renders the format canonically.
func (f *Format) Regex() string { return f.pat.Regex() }

// Matches reports whether key belongs to the format.
func (f *Format) Matches(key string) bool { return f.pat.Matches(key) }

// MinLen returns the shortest admissible key length in bytes.
func (f *Format) MinLen() int { return f.pat.MinLen }

// MaxLen returns the longest admissible key length in bytes.
func (f *Format) MaxLen() int { return f.pat.MaxLen }

// FixedLen reports whether all keys of the format share one length.
func (f *Format) FixedLen() bool { return f.pat.FixedLen() }

// VariableBits returns the number of bits that vary across the
// format's keys — the format's entropy ceiling and the quantity that
// decides whether Pext is a bijection (≤ 64).
func (f *Format) VariableBits() int { return f.pat.VarBitCount() }

// Samples returns n random keys of the format, deterministically for
// a given seed. Keys are drawn from the quad-widened format (the set
// the synthesized functions are actually specialized to), so a [0-9]
// slot may also show the characters ':' through '?'.
func (f *Format) Samples(n int, seed uint64) []string {
	return f.pat.SampleN(rng.New(seed), n)
}

// Option configures Synthesize.
type Option func(*core.Options)

// WithTarget selects the synthesis target (default TargetX86).
func WithTarget(t Target) Option {
	return func(o *core.Options) { o.Target = t }
}

// AllowShortKeys forces synthesis for formats shorter than 8 bytes
// instead of falling back to the standard hash (the paper's footnote
// 5 documents the default; RQ7's worst-case study needs the override).
func AllowShortKeys() Option {
	return func(o *core.Options) { o.AllowShort = true }
}

// WithTracer streams timed span events of the synthesis pipeline
// (pattern validation, planning, pext mask lowering, verification,
// compilation) to t. A CollectTracer gathers them for a per-phase
// report; a WriterTracer prints them as they happen.
func WithTracer(t Tracer) Option {
	return func(o *core.Options) { o.Tracer = t }
}

// Seed is an opaque keying secret for seeded synthesis. A seeded
// function's hash values depend on the seed, so an attacker who knows
// the key format — and could otherwise mine colliding keys offline
// against the deterministic function — faces an unknown member of a
// 2^64-strong family instead. Seeds redact themselves when formatted;
// only the disclosure-safe Generation number may be logged.
//
// The zero Seed is unkeyed: passing it to WithSeed is a no-op.
type Seed struct {
	s *seed.Seed
}

// NewSeed returns a fresh random seed from the operating system's
// CSPRNG. This is the per-process seed of a production deployment.
func NewSeed() Seed { return Seed{s: seed.New()} }

// SeedFromUint64 returns the deterministic seed derived from v — for
// tests, and for fleets that must agree on hash placement across
// processes. v is as secret as the seed itself.
func SeedFromUint64(v uint64) Seed { return Seed{s: seed.FromUint64(v)} }

// Generation returns the seed's process-wide generation number, a
// disclosure-safe identifier for telemetry (0 for the zero Seed).
func (s Seed) Generation() uint64 {
	if s.s == nil {
		return 0
	}
	return s.s.Generation()
}

// String redacts.
func (s Seed) String() string {
	if s.s == nil {
		return "sepe.Seed(zero)"
	}
	return "sepe.Seed(redacted)"
}

// WithSeed keys the synthesized function with s: the linear families
// (Naive, OffXor, Pext) gain a secret full-rank affine GF(2) post-mix
// — certified invertible, so bijectivity certificates and Invert still
// hold — and the Aes family draws its round keys from the seed. Equal
// seeds give bit-identical functions; distinct seeds give functions
// whose bucket placement an attacker cannot predict from the format
// alone. See the "Keyed hashing & flood resistance" section of the
// README for the threat model and its limits.
func WithSeed(s Seed) Option {
	return func(o *core.Options) { o.Seed = s.s }
}

// NewSeededHash is Synthesize with a fresh random per-process seed:
// the flood-resistant counterpart of the plain constructor. The seed
// is not recoverable from the returned Hash; rotate by re-synthesizing
// (the adaptive wrapper does this on every recovery — see
// NewAdaptiveHash).
func NewSeededHash(f *Format, fam Family, opts ...Option) (*Hash, error) {
	return Synthesize(f, fam, append([]Option{WithSeed(NewSeed())}, opts...)...)
}

// NewSeededAll is SynthesizeAll under one fresh random seed shared by
// every family, so a deployment comparing families keys them
// identically.
func NewSeededAll(f *Format, opts ...Option) (map[Family]*Hash, error) {
	return SynthesizeAll(f, append([]Option{WithSeed(NewSeed())}, opts...)...)
}

// RequireCertifiedBijective makes Synthesize fail with
// core.ErrNotBijective unless the certifier proves the function maps
// distinct format keys to distinct 64-bit values. The proof is the
// full GF(2) rank analysis behind Certificate, so it also admits
// functions the conservative Bijective predicate cannot see (for
// example a single-word OffXor over a format with at most 64 variable
// bits). Use it when a container or index assumes zero collisions.
func RequireCertifiedBijective() Option {
	return func(o *core.Options) { o.RequireBijective = true }
}

// ErrNilFormat reports a nil format argument.
var ErrNilFormat = errors.New("sepe: nil format")

// Hash is a synthesized hash function.
type Hash struct {
	fn  *core.Fn
	fam Family
}

// Synthesize generates a hash function of the given family for the
// format.
func Synthesize(f *Format, fam Family, opts ...Option) (*Hash, error) {
	if f == nil {
		return nil, ErrNilFormat
	}
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	fn, err := core.Synthesize(f.pat, core.Family(fam), o)
	if err != nil {
		return nil, err
	}
	return &Hash{fn: fn, fam: fam}, nil
}

// SynthesizeAll generates one function per family the target supports.
func SynthesizeAll(f *Format, opts ...Option) (map[Family]*Hash, error) {
	if f == nil {
		return nil, ErrNilFormat
	}
	out := make(map[Family]*Hash, len(Families))
	for _, fam := range Families {
		h, err := Synthesize(f, fam, opts...)
		if err != nil {
			if errors.Is(err, core.ErrUnsupported) {
				continue
			}
			return nil, err
		}
		out[fam] = h
	}
	return out, nil
}

// Hash applies the function to a key. Behaviour is defined for keys of
// the synthesized format; other keys hash deterministically but with
// weaker collision guarantees.
func (h *Hash) Hash(key string) uint64 { return h.fn.Hash(key) }

// HashBatch hashes keys[i] into out[i] for every i, amortizing the
// per-call closure dispatch over the batch. out must be at least as
// long as keys. The results are bit-identical to calling Hash on each
// key — the batch path changes dispatch, never the function.
func (h *Hash) HashBatch(keys []string, out []uint64) { h.fn.HashBatch(keys, out) }

// Func returns the function value, for use with the containers.
func (h *Hash) Func() HashFunc { return h.fn.Func() }

// Family returns the function's family.
func (h *Hash) Family() Family { return h.fam }

// Bijective reports whether the function provably maps distinct format
// keys to distinct 64-bit values (Pext with ≤ 64 variable bits).
func (h *Hash) Bijective() bool { return h.fn.Plan().Bijective() }

// Certificate is the machine-checkable result of the plan certifier:
// either a bijectivity proof (full GF(2) rank over the format's
// variable bits) or a concrete counterexample — two distinct format
// keys with the same hash — together with the dead-entropy and funnel
// reports and a certified collision lower bound. See core.Certify.
type Certificate = core.Certificate

// BitRef names one variable bit of the key format, as it appears in a
// certificate's dead-entropy report.
type BitRef = core.BitRef

// Funnel reports a hash bit fed by more than one key bit, with its
// fan-in.
type Funnel = core.Funnel

// Counterexample is a verified pair of distinct format keys with
// identical hashes.
type Counterexample = core.Counterexample

// Certificate runs the certifier over the function's plan and returns
// the verdict. The certificate is recomputed on each call; it is
// cheap (GF(2) elimination over at most a few hundred columns) but
// callers that embed it in telemetry should cache it.
func (h *Hash) Certificate() *Certificate { return core.Certify(h.fn.Plan()) }

// Matches reports whether key belongs to the format the function was
// synthesized for — the set its specialization guarantees (and, for
// bijective functions, its injectivity proof) cover.
func (h *Hash) Matches(key string) bool { return h.fn.Pattern().Matches(key) }

// Format returns the format the function was synthesized for.
func (h *Hash) Format() *Format { return &Format{pat: h.fn.Pattern()} }

// Invert reconstructs the unique format key hashing to v, for
// bijective functions: the constructive counterpart of Bijective and
// the learned-index duality the paper quotes ("the key itself can be
// used as an offset"). It reports false for values outside the
// function's image and for non-bijective functions.
func (h *Hash) Invert(v uint64) (string, bool) { return h.fn.Invert(v) }

// Fallback reports whether synthesis fell back to the standard hash
// because the format is shorter than a machine word.
func (h *Hash) Fallback() bool { return h.fn.Plan().Fallback }

// Backend returns the execution tier the function was compiled to —
// hardware kernels, software networks, or the standard-hash fallback.
// The tier is fixed at synthesis time; re-synthesizing after changing
// the CPU feature overrides may select a different one.
func (h *Hash) Backend() Backend { return h.fn.Backend() }

// Seeded reports whether the function carries keying material
// (WithSeed / NewSeededHash).
func (h *Hash) Seeded() bool { return h.fn.Plan().Seed != nil }

// SeedGeneration returns the generation number of the function's seed
// (0 for unseeded functions) — the only seed-derived quantity safe to
// log.
func (h *Hash) SeedGeneration() uint64 {
	if p := h.fn.Plan(); p.Seed != nil {
		return p.Seed.Gen
	}
	return 0
}

// GoSource emits the function as Go source (one file; compile it with
// SupportSource in the same package).
//
// Seed caveat: codegen renders the unseeded dataflow only. Emitting a
// seeded function would bake its secret post-mix and round keys into
// source text — exactly the disclosure seeding exists to prevent — so
// the generated code computes the unseeded hash even when h is seeded.
func (h *Hash) GoSource(pkg, name string) string {
	return codegen.Go(h.fn.Plan(), codegen.GoOptions{Package: pkg, Name: name})
}

// CPPSource emits the function as a C++ functor in the paper's Figure
// 5c shape, usable with std::unordered_map.
//
// Seed caveat: as with GoSource, the emitted functor is the unseeded
// function; seeds never appear in generated source.
func (h *Hash) CPPSource(structName string) string {
	return codegen.CPP(h.fn.Plan(), codegen.CPPOptions{Struct: structName})
}

// String summarizes the synthesized function.
func (h *Hash) String() string { return fmt.Sprintf("sepe.%s", h.fn.String()) }

// SupportSource emits the helper file generated Go sources rely on.
func SupportSource(pkg string) string { return codegen.Support(pkg) }

// Baseline hash functions, for comparison and as safe defaults:
// bit-faithful ports of the functions the paper benchmarks against.
var (
	// STLHash is libstdc++'s murmur-derived std::hash (Figure 1).
	STLHash HashFunc = hashes.STL
	// FNVHash is libstdc++'s 64-bit FNV-1a.
	FNVHash HashFunc = hashes.FNV
	// CityHash is Google's CityHash64.
	CityHash HashFunc = hashes.City
	// AbseilHash is an Abseil-style low-level (wyhash-derived) hash.
	AbseilHash HashFunc = hashes.Abseil
)
