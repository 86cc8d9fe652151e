package core

import (
	"slices"
	"strings"
	"testing"

	"github.com/sepe-go/sepe/internal/seed"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// TestSynthesisSpanVocabulary pins every span Synthesize records: its
// name, its category and its exact ordered attribute keys, for each
// family unseeded, seeded, and refused by RequireBijective. The
// recorder keeps at most six attributes per event and silently drops
// the rest, so a span growing past six fails here instead of losing
// its tail in `keysynth -stats` and exported traces.
func TestSynthesisSpanVocabulary(t *testing.T) {
	// 80 variable bits: no family can be bijective, so the refusal case
	// fails for every family, and the linear ones carry a counterexample.
	pat := mustPattern(t, `[0-9]{20}`)
	const (
		planPattern = "plan.pattern(min_len,max_len,variable_bits)"
		planPext    = "plan.pext(masks,extracted_bits)"
		planSeed    = "plan.seed(attempt,generation)"
		synthPlan   = "synth.plan(family,loads,variable_bits,fallback,seeded)"
		verify      = "synth.verify(family)"
		compile     = "synth.compile(family,bijective)"
		refuted     = "synth.verify(family,error,counterexample_key1,counterexample_key2)"
		// The certifier models the AES round as full diffusion: it
		// refutes the plan without a colliding pair.
		refutedAes = "synth.verify(family,error)"
	)
	for _, fam := range Families {
		planned := []string{planPattern}
		if fam == Pext {
			planned = append(planned, planPext)
		}
		refusal := refuted
		if fam == Aes {
			refusal = refutedAes
		}
		for _, tc := range []struct {
			name string
			opts Options
			want []string
		}{
			{"unseeded", Options{}, slices.Concat(planned, []string{synthPlan, verify, compile})},
			{"seeded", Options{Seed: seed.FromUint64(1)}, slices.Concat(planned, []string{planSeed, synthPlan, verify, compile})},
			{"not-bijective", Options{RequireBijective: true}, slices.Concat(planned, []string{synthPlan, refusal})},
		} {
			t.Run(fam.String()+"/"+tc.name, func(t *testing.T) {
				rec := telemetry.NewRecorder(0)
				tc.opts.Recorder = rec
				_, err := Synthesize(pat, fam, tc.opts)
				if (err != nil) != tc.opts.RequireBijective {
					t.Fatalf("Synthesize error = %v", err)
				}
				var got []string
				for _, ev := range rec.Events() {
					if ev.Kind != telemetry.EventSpan {
						t.Errorf("%s: kind %v, want span", ev.Name, ev.Kind)
					}
					if want, _, _ := strings.Cut(ev.Name, "."); ev.Cat != want {
						t.Errorf("%s: category %q, want %q", ev.Name, ev.Cat, want)
					}
					var keys []string
					for _, a := range ev.AttrList() {
						keys = append(keys, a.Key)
						if a.Sensitive != strings.HasPrefix(a.Key, "counterexample_") {
							t.Errorf("%s: attribute %s sensitive=%v", ev.Name, a.Key, a.Sensitive)
						}
					}
					got = append(got, ev.Name+"("+strings.Join(keys, ",")+")")
				}
				if !slices.Equal(got, tc.want) {
					t.Errorf("spans:\n got %v\nwant %v", got, tc.want)
				}
			})
		}
	}
}
