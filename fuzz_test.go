// Fuzz targets over the public API surface that accepts arbitrary
// input: regex parsing, example-based inference, synthesized hashes on
// arbitrary keys, and the bijective container's off-format guard.
//
// Run continuously with `make fuzz`, or one target at a time:
//
//	go test -fuzz=FuzzParseRegex -fuzztime=30s .
package sepe_test

import (
	"testing"
	"unicode/utf8"

	"github.com/sepe-go/sepe"
)

// FuzzParseRegex: arbitrary expressions must either parse or fail with
// an error — never panic, never hang, never exhaust memory (the
// expansion bounds of internal/rex). Accepted expressions must
// round-trip: keys sampled from the parsed format match it.
func FuzzParseRegex(f *testing.F) {
	for _, seed := range []string{
		`[0-9]{3}-[0-9]{2}-[0-9]{4}`,
		`(a|b)?c*d+`,
		`[0-9]{3}(\.[0-9]{3}){3}`,
		`(a{1048576}){1048576}`, // length blowup: must be rejected, not OOM
		`[0-9]{16384}`,          // the longest format: one form, built once
		`((((((((a{0}){1048576}){1048576}){1048576}){1048576}){1048576}){1048576}){1048576}){1048576}b`, // empty bodies: no stepping through the counts
		`(a|b)(c|d)(e|f)(g|h)(i|j)(k|l)(m|n)(o|p)(q|r)(s|t)`,
		`\d{4}-\d{2}-\d{2}`,
		`[`, `(`, `a{`, `a{2,1}`, `a**`, `|`, ``,
		`[^0-9]`, `[a-]`, `[]-a]`, `\`, `a\`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		format, err := sepe.ParseRegex(expr)
		if err != nil {
			return
		}
		for _, key := range format.Samples(4, 1) {
			if !format.Matches(key) {
				t.Fatalf("ParseRegex(%q): sampled key %q does not match its own format", expr, key)
			}
		}
	})
}

// FuzzInfer: inference from arbitrary example sets must not panic, and
// an inferred format must admit every example it was inferred from
// (soundness, Theorem 3.4's join direction).
func FuzzInfer(f *testing.F) {
	f.Add("111-22-3333", "999-88-7777", "000-00-0000")
	f.Add("a", "bc", "")
	f.Add("\x00\xff", "\x80\x7f", "ab")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		format, err := sepe.Infer([]string{a, b, c})
		if err != nil {
			return
		}
		for _, ex := range []string{a, b, c} {
			if !format.Matches(ex) {
				t.Fatalf("inferred format %q rejects its own example %q", format.Regex(), ex)
			}
		}
	})
}

// fuzzHashes synthesizes one hash per family over the SSN format, once
// for the whole fuzz run.
func fuzzHashes(f *testing.F) map[sepe.Family]*sepe.Hash {
	f.Helper()
	format, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		f.Fatal(err)
	}
	hs, err := sepe.SynthesizeAll(format)
	if err != nil {
		f.Fatal(err)
	}
	return hs
}

// FuzzSynthesizedHash: a synthesized function is specialized to its
// format but TOTAL — arbitrary keys (wrong length, wrong bytes,
// invalid UTF-8, multi-megabyte) must hash without panicking, and
// hashing must be deterministic.
func FuzzSynthesizedHash(f *testing.F) {
	hs := fuzzHashes(f)
	f.Add("078-05-1120")
	f.Add("")
	f.Add("\x00")
	f.Add("completely wrong shape")
	f.Add(string(make([]byte, 1<<20))) // multi-MB off-format key
	f.Fuzz(func(t *testing.T, key string) {
		for fam, h := range hs {
			v1 := h.Hash(key)
			v2 := h.Hash(key)
			if v1 != v2 {
				t.Fatalf("%v hash of %q not deterministic: %#x vs %#x", fam, key, v1, v2)
			}
		}
	})
}

// FuzzBijectiveReject: the bijective container must REJECT off-format
// keys rather than corrupt entries. A sentinel on-format entry is
// planted first; no sequence of arbitrary-key operations may alias it,
// overwrite it, or delete it.
func FuzzBijectiveReject(f *testing.F) {
	hs := fuzzHashes(f)
	f.Add("078-05-1120")
	f.Add("078051120\x00\x00")
	f.Add("999-99-9999")
	f.Add("078-05-112O") // letter O, off-format
	f.Fuzz(func(t *testing.T, key string) {
		h := hs[sepe.Pext]
		m, err := sepe.NewBijectiveMap[int](h)
		if err != nil {
			t.Fatal(err)
		}
		const sentinel = "078-05-1120"
		if _, err := m.Put(sentinel, 42); err != nil {
			t.Fatal(err)
		}

		onFormat := h.Matches(key)
		isNew, err := m.Put(key, 7)
		switch {
		case !onFormat && err != sepe.ErrOffFormat:
			t.Fatalf("off-format Put(%q) err = %v, want ErrOffFormat", key, err)
		case onFormat && err != nil:
			t.Fatalf("on-format Put(%q) err = %v", key, err)
		case onFormat && key != sentinel && !isNew:
			t.Fatalf("Put(%q) aliased the sentinel: bijectivity broken", key)
		}

		wantSentinel := 42
		if key == sentinel {
			wantSentinel = 7
		}
		if v, ok := m.Get(sentinel); !ok || v != wantSentinel {
			t.Fatalf("sentinel corrupted by Put(%q): got %d,%v want %d", key, v, ok, wantSentinel)
		}
		if !onFormat {
			if _, ok := m.Get(key); ok {
				t.Fatalf("off-format Get(%q) hit", key)
			}
			if m.Delete(key) {
				t.Fatalf("off-format Delete(%q) removed an entry", key)
			}
			if v, ok := m.Get(sentinel); !ok || v != 42 {
				t.Fatalf("sentinel corrupted by off-format ops: %d,%v", v, ok)
			}
		}
		_ = utf8.ValidString(key) // keys need not be UTF-8; just exercise both
	})
}

// FuzzSeededSynthesize: keyed synthesis under arbitrary seed material
// and arbitrary keys. For every family, the same seed must reproduce
// the same function, the seeded function must be total (off-format
// keys hash without panicking), seeding must neither create nor
// destroy collisions relative to the unseeded function on the linear
// families, and a bijective plan must stay bijective — certified with
// a full-rank post-mix — and invertible.
func FuzzSeededSynthesize(f *testing.F) {
	format, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		f.Fatal(err)
	}
	base := fuzzHashes(f)
	f.Add(uint64(0), "078-05-1120")
	f.Add(uint64(1), "")
	f.Add(^uint64(0), "999-99-9999")
	f.Add(uint64(0xC0FFEE), "completely wrong shape")
	f.Add(uint64(42), "078-05-112O")
	f.Fuzz(func(t *testing.T, seedVal uint64, key string) {
		for _, fam := range []sepe.Family{sepe.OffXor, sepe.Aes, sepe.Pext} {
			h1, err := sepe.Synthesize(format, fam, sepe.WithSeed(sepe.SeedFromUint64(seedVal)))
			if err != nil {
				t.Fatalf("%v seeded synthesize: %v", fam, err)
			}
			h2, err := sepe.Synthesize(format, fam, sepe.WithSeed(sepe.SeedFromUint64(seedVal)))
			if err != nil {
				t.Fatal(err)
			}
			if h1.Hash(key) != h2.Hash(key) {
				t.Fatalf("%v seed %#x not deterministic on %q", fam, seedVal, key)
			}
			if !h1.Seeded() {
				t.Fatalf("%v hash not seeded", fam)
			}
			if fam != sepe.Aes {
				onKey := "078-05-1120"
				sameSeeded := h1.Hash(key) == h1.Hash(onKey)
				sameBase := base[fam].Hash(key) == base[fam].Hash(onKey)
				if sameSeeded != sameBase {
					t.Fatalf("%v seeding changed collision structure for %q vs %q", fam, key, onKey)
				}
			}
			if base[fam].Bijective() {
				cert := h1.Certificate()
				if !cert.Bijective || cert.MixerRank != 64 {
					t.Fatalf("%v seeded cert lost bijectivity: bij=%v mixer=%d reason=%q",
						fam, cert.Bijective, cert.MixerRank, cert.Reason)
				}
				if got, ok := h1.Invert(h1.Hash("078-05-1120")); !ok || got != "078-05-1120" {
					t.Fatalf("%v seeded Invert round-trip failed: %q %v", fam, got, ok)
				}
			}
		}
	})
}
