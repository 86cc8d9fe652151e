package core

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/seed"
)

// requireCounterexample asserts the certificate carries a verified
// colliding pair and re-checks it from scratch: distinct keys, both in
// the format, equal hashes under a freshly compiled closure.
func requireCounterexample(t *testing.T, p *Plan, c *Certificate) {
	t.Helper()
	ce := c.Counterexample
	if ce == nil {
		t.Fatalf("no counterexample (reason: %s)", c.Reason)
	}
	if ce.Key1 == ce.Key2 {
		t.Fatalf("counterexample keys are equal: %q", ce.Key1)
	}
	if !p.Pattern.Matches(ce.Key1) || !p.Pattern.Matches(ce.Key2) {
		t.Fatalf("counterexample keys %q, %q are not format members", ce.Key1, ce.Key2)
	}
	fn, _ := p.compile()
	h1, h2 := fn(ce.Key1), fn(ce.Key2)
	if h1 != h2 {
		t.Fatalf("counterexample does not collide: %#x vs %#x", h1, h2)
	}
	if h1 != ce.Hash {
		t.Fatalf("recorded hash %#x, executed %#x", ce.Hash, h1)
	}
}

func TestCertifyPextSSNBijective(t *testing.T) {
	p := mustPlan(t, `[0-9]{3}-[0-9]{2}-[0-9]{4}`, Pext)
	c := Certify(p)
	if !c.Bijective {
		t.Fatalf("SSN Pext not certified bijective: %s", c.Reason)
	}
	if c.VariableBits != 36 || c.Rank != 36 {
		t.Fatalf("want 36 variable bits at full rank, got V=%d rank=%d", c.VariableBits, c.Rank)
	}
	if len(c.DeadBits) != 0 || c.CollisionLog2 != 0 || c.Counterexample != nil {
		t.Fatalf("bijective certificate carries collision evidence: %+v", c)
	}
	if c.Mode != "fixed" || !c.Linear {
		t.Fatalf("want linear fixed mode, got %s linear=%v", c.Mode, c.Linear)
	}
}

// The certifier is strictly stronger than Plan.Bijective (which only
// trusts Pext): a whole-word OffXor plan over one word is an identity
// map on the key bits, and the rank analysis proves it injective.
func TestCertifyProvesBijectivityBeyondPext(t *testing.T) {
	p := mustPlan(t, `[0-9]{8}`, OffXor)
	c := Certify(p)
	if !c.Bijective {
		t.Fatalf("single-word OffXor not certified bijective: %s", c.Reason)
	}
	if p.Bijective() {
		t.Fatal("Plan.Bijective claims OffXor; the test premise is gone")
	}
}

// OffXor on multi-word fixed formats xors unrotated words, so distinct
// key bits funnel into the same hash bits: the certifier must find the
// kernel and prove the collision by execution.
func TestCertifyOffXorMultiWordCollides(t *testing.T) {
	p := mustPlan(t, `[0-9]{16}`, OffXor)
	c := Certify(p)
	if c.Bijective {
		t.Fatal("two overlapping identity windows certified bijective")
	}
	if c.CollisionLog2 == 0 {
		t.Fatal("no certified collision bound for a rank-deficient plan")
	}
	if len(c.Funnels) == 0 {
		t.Fatal("no funnel report for overlapping identity windows")
	}
	requireCounterexample(t, p, c)
}

func TestCertifyNaiveCollides(t *testing.T) {
	p := mustPlan(t, `[0-9]{16}`, Naive)
	c := Certify(p)
	if c.Bijective {
		t.Fatal("naive xor certified bijective")
	}
	requireCounterexample(t, p, c)
}

// A >64-bit Pext spill cannot inject into 64 bits: the certificate
// must carry the pigeonhole bound, fan-in funnels, and a real pair.
func TestCertifyPextSpillFunnels(t *testing.T) {
	p := mustPlan(t, `[0-9]{100}`, Pext)
	c := Certify(p)
	if c.Bijective {
		t.Fatal("400-variable-bit plan certified bijective")
	}
	if c.VariableBits != 400 {
		t.Fatalf("want 400 variable bits, got %d", c.VariableBits)
	}
	if c.CollisionLog2 < 400-64 {
		t.Fatalf("collision bound %d below the pigeonhole floor %d", c.CollisionLog2, 400-64)
	}
	if len(c.Funnels) == 0 {
		t.Fatal("spill plan reports no funnels")
	}
	requireCounterexample(t, p, c)
}

func TestCertifyAesNotCertifiedBijective(t *testing.T) {
	p := mustPlan(t, `[0-9]{3}-[0-9]{2}-[0-9]{4}`, Aes)
	c := Certify(p)
	if c.Bijective || c.Linear {
		t.Fatalf("aes certified linear/bijective: %+v", c)
	}
	if !strings.Contains(c.Reason, "aes") {
		t.Fatalf("reason does not mention aes: %s", c.Reason)
	}
	if len(c.DeadBits) != 0 {
		t.Fatalf("healthy aes plan reports dead bits: %v", c.DeadBits)
	}
}

func TestCertifyVariablePlan(t *testing.T) {
	p := mustPlan(t, `user-[0-9]{8,24}`, Pext)
	c := Certify(p)
	if c.Mode != "variable" {
		t.Fatalf("want variable mode, got %s", c.Mode)
	}
	if c.Bijective {
		t.Fatal("variable-length plan certified bijective")
	}
	if !strings.Contains(c.Reason, "variable-length") {
		t.Fatalf("reason does not mention variable length: %s", c.Reason)
	}
	if len(c.DeadBits) != 0 {
		t.Fatalf("healthy variable plan reports dead bits: %v", c.DeadBits)
	}
}

func TestCertifyShortPlan(t *testing.T) {
	p, err := BuildPlan(mustPattern(t, `[0-9]{4}`), Pext, Options{AllowShort: true})
	if err != nil {
		t.Fatal(err)
	}
	c := Certify(p)
	if c.Mode != "short" {
		t.Fatalf("want short mode, got %s", c.Mode)
	}
	if !c.Bijective {
		t.Fatalf("16-bit short Pext not certified bijective: %s", c.Reason)
	}
}

func TestCertifyFallback(t *testing.T) {
	p, err := BuildPlan(mustPattern(t, `[0-9]{4}`), Pext, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := Certify(p)
	if c.Mode != "fallback" || c.Bijective {
		t.Fatalf("fallback certificate wrong: %+v", c)
	}
}

// Every paper format × family must certify without structural findings
// and without model mismatches, and every certificate that does claim
// a counterexample must really collide.
func TestCertifyAllPaperFormatsAllFamilies(t *testing.T) {
	exprs := []string{
		`[0-9]{3}-[0-9]{2}-[0-9]{4}`,
		`[0-9]{3}\.[0-9]{3}\.[0-9]{3}-[0-9]{2}`,
		`([0-9a-f]{2}-){5}[0-9a-f]{2}`,
		`([0-9]{3}\.){3}[0-9]{3}`,
		`([0-9a-f]{4}:){7}[0-9a-f]{4}`,
		`[0-9]{100}`,
		`https://www\.example\.com[a-z0-9]{20}\.html`,
		`user-[0-9]{8,24}`,
	}
	for _, expr := range exprs {
		for _, fam := range Families {
			p, err := BuildPlan(mustPattern(t, expr), fam, Options{})
			if err != nil {
				t.Fatal(err)
			}
			c := Certify(p)
			if len(c.Findings) != 0 {
				t.Errorf("%s/%v: findings on a fresh plan: %v", expr, fam, c.Findings)
			}
			if c.Counterexample != nil {
				requireCounterexample(t, p, c)
			}
			if c.Bijective && (c.Counterexample != nil || c.CollisionLog2 != 0) {
				t.Errorf("%s/%v: bijective with collision evidence", expr, fam)
			}
		}
	}
}

func TestCertificateJSONRoundtrip(t *testing.T) {
	p := mustPlan(t, `[0-9]{16}`, OffXor)
	c := Certify(p)
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Certificate
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Family != c.Family || back.Bijective != c.Bijective ||
		back.CollisionLog2 != c.CollisionLog2 {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", back, c)
	}
	if back.Counterexample == nil || back.Counterexample.Key1 != c.Counterexample.Key1 {
		t.Fatal("counterexample lost in roundtrip")
	}
}

// TestProvenanceMatchesReference: the dense-index provenanceOf yields
// the map-based reference's columns, bit refs, tail count and AES
// coverage on the RQ corpus × every family, seeded and unseeded, and on
// the variable-length and short formats above.
func TestProvenanceMatchesReference(t *testing.T) {
	exprs := []string{`user-[0-9]{8,24}`, `[0-9]{16}`, `[0-9]{8}`, `[0-9]{4}`, `[a-z]{3,40}\.[0-9]{2,9}`}
	for _, k := range keys.All {
		exprs = append(exprs, k.Regex())
	}
	for _, expr := range exprs {
		for _, fam := range Families {
			for _, opts := range []Options{{}, {Seed: seed.FromUint64(29)}, {AllowShort: true}} {
				p, err := BuildPlan(mustPattern(t, expr), fam, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, gok := provenanceOf(p, p.Pattern)
				want, wok := refProvenanceOf(p, p.Pattern)
				if gok != wok {
					t.Fatalf("%s/%v: ok %v, reference %v", expr, fam, gok, wok)
				}
				if !gok {
					continue
				}
				if got.tailBits != want.tailBits || got.tailStart != want.tailStart ||
					!slices.Equal(got.cols, want.cols) || !slices.Equal(got.refs, want.refs) ||
					!slices.Equal(got.aesCovered, want.aesCovered) {
					t.Fatalf("%s/%v seeded=%v: provenance %+v, reference %+v", expr, fam, opts.Seed != nil, got, want)
				}
			}
		}
	}
}

// TestCertifyDoubleExtractionAnywhere: the double-selection finding
// names every re-extracted key byte, including byte 0 and bytes of
// loads that reach outside the key (tracked apart from the in-key
// bytes).
func TestCertifyDoubleExtractionAnywhere(t *testing.T) {
	for _, c := range []struct {
		offset int
		want   []string
	}{
		{0, []string{"bit of key byte 0 extracted twice", "bit of key byte 7 extracted twice"}},
		{20, []string{"load 2 [20,28) outside key", "bit of key byte 20 extracted twice", "bit of key byte 27 extracted twice"}},
		{-8, []string{"load 2 [-8,0) outside key", "bit of key byte -8 extracted twice", "bit of key byte -1 extracted twice"}},
	} {
		p := mustPlan(t, `[0-9]{3}-[0-9]{2}-[0-9]{4}`, Pext)
		dup := p.Loads[0]
		dup.Offset = c.offset
		p.Loads = append(p.Loads, dup, dup)
		findings := strings.Join(Certify(p).Findings, "\n")
		for _, want := range c.want {
			if !strings.Contains(findings, want) {
				t.Errorf("offset %d: no finding %q in\n%s", c.offset, want, findings)
			}
		}
	}
}
