package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/sepe-go/sepe/internal/codegen"
	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/hashes"
	"github.com/sepe-go/sepe/internal/infer"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/pattern"
	"github.com/sepe-go/sepe/internal/stats"
)

// UniformityKeys is the RQ3 sample size ("Generate 100,000 keys").
const UniformityKeys = 100000

// Uniformity implements the RQ3 methodology: draw n keys of the given
// type and distribution, hash them, build a 64-bin histogram over the
// 64-bit range, and return the χ² statistic against uniformity.
func Uniformity(hash hashes.Func, t keys.Type, d keys.Distribution, n int) (float64, error) {
	if n == 0 {
		n = UniformityKeys
	}
	gen := keys.NewGenerator(t, d, 0xD157)
	values := make([]uint64, n)
	for i := range values {
		values[i] = hash(gen.Next())
	}
	hist := stats.Histogram(values, 64)
	chi2, _, err := stats.ChiSquareUniform(hist)
	return chi2, err
}

// UniformityTable computes Table 2 for one key type: per function and
// distribution, the χ² statistic normalized by STL's.
func UniformityTable(t keys.Type, names []HashName, n int) (map[HashName]map[keys.Distribution]float64, error) {
	out := make(map[HashName]map[keys.Distribution]float64, len(names))
	stl := map[keys.Distribution]float64{}
	for _, d := range keys.Distributions {
		chi2, err := Uniformity(hashes.STL, t, d, n)
		if err != nil {
			return nil, err
		}
		if chi2 == 0 {
			chi2 = 1 // degenerate perfection; avoid dividing by zero
		}
		stl[d] = chi2
	}
	for _, name := range names {
		f, err := HashFor(name, t, core.TargetX86)
		if err != nil {
			return nil, err
		}
		row := map[keys.Distribution]float64{}
		for _, d := range keys.Distributions {
			chi2, err := Uniformity(f, t, d, n)
			if err != nil {
				return nil, err
			}
			row[d] = chi2 / stl[d]
		}
		out[name] = row
	}
	return out, nil
}

// SynthesisPoint is one measurement of RQ6: the time to run the whole
// synthesis pipeline (inference, planning, plan compilation and source
// emission) for a key of the given size.
type SynthesisPoint struct {
	KeySize int
	Elapsed time.Duration
}

// SynthesisScaling measures synthesis time for all-digit keys of size
// 2^lo .. 2^hi (the paper uses 2^4 .. 2^14) and keeps each size's
// minimum (noise floor) over `reps` rounds. Each round times every
// size once, so a change in host load between rounds reaches all
// sizes alike instead of bending the curve. Each measurement is timed
// on CPU (see onCPU), after a collection, so neither a loaded host
// that keeps the thread waiting for a processor nor a collection
// triggered by an earlier size lands in it.
func SynthesisScaling(fam core.Family, lo, hi, reps int) ([]SynthesisPoint, error) {
	if reps <= 0 {
		reps = 3
	}
	var out []SynthesisPoint
	for e := lo; e <= hi; e++ {
		out = append(out, SynthesisPoint{KeySize: 1 << e})
	}
	for r := 0; r < reps; r++ {
		for i := range out {
			// Two examples suffice (Example 3.6): all '0's and all '5's.
			size := out[i].KeySize
			ex := []string{strings.Repeat("0", size), strings.Repeat("5", size)}
			var err error
			runtime.GC()
			el := onCPU(func() {
				var pat *pattern.Pattern
				if pat, err = infer.Infer(ex); err != nil {
					return
				}
				var fn *core.Fn
				if fn, err = core.Synthesize(pat, fam, core.Options{}); err != nil {
					return
				}
				if len(codegen.Go(fn.Plan(), codegen.GoOptions{})) == 0 {
					err = fmt.Errorf("bench: empty emission")
				}
			})
			if err != nil {
				return nil, err
			}
			if r == 0 || el < out[i].Elapsed {
				out[i].Elapsed = el
			}
		}
	}
	return out, nil
}

// PearsonOfScaling returns the linear correlation between key size and
// elapsed time, the paper's RQ6/RQ8 linearity evidence.
func PearsonOfScaling(pts []SynthesisPoint) (float64, error) {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = float64(p.KeySize)
		ys[i] = float64(p.Elapsed.Nanoseconds())
	}
	return stats.Pearson(xs, ys)
}

// HashScalingPoint is one measurement of RQ8: hashing time per key as
// the key size grows.
type HashScalingPoint struct {
	KeySize int
	PerKey  time.Duration
}

// HashScaling measures the given function over all-digit keys of size
// 2^lo..2^hi, hashing each key `reps` times.
func HashScaling(f hashes.Func, lo, hi, reps int) []HashScalingPoint {
	if reps <= 0 {
		reps = 2000
	}
	var out []HashScalingPoint
	for e := lo; e <= hi; e++ {
		size := 1 << e
		key := strings.Repeat("7", size)
		var sink uint64
		start := time.Now()
		for r := 0; r < reps; r++ {
			sink += f(key)
		}
		el := time.Since(start)
		_ = sink
		out = append(out, HashScalingPoint{KeySize: size, PerKey: el / time.Duration(reps)})
	}
	return out
}

// PearsonOfHashScaling is PearsonOfScaling for RQ8 points.
func PearsonOfHashScaling(pts []HashScalingPoint) (float64, error) {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = float64(p.KeySize)
		ys[i] = float64(p.PerKey.Nanoseconds())
	}
	return stats.Pearson(xs, ys)
}

// LowMixingPoint is one measurement of RQ7: collisions in a container
// whose bucket index discards the low `Discard` bits of the hash.
type LowMixingPoint struct {
	Discard uint
	BColl   int
	TColl   int
}

// LowMixing sweeps the discarded-bit count for one function over one
// key type (the paper's Figures 17 and 18 sweep X = 0..56 in steps of
// 8 over aggregated key types).
func LowMixing(f hashes.Func, t keys.Type, d keys.Distribution, discards []uint, n int) []LowMixingPoint {
	if n == 0 {
		n = CollisionKeys
	}
	pool := keys.NewGenerator(t, d, 0xBEEF).Distinct(n)
	var out []LowMixingPoint
	for _, x := range discards {
		c := container.New(container.SetKind, func(k string) uint64 { return f(k) >> x })
		seen := make(map[uint64]struct{}, n)
		tc := 0
		for _, k := range pool {
			h := f(k)
			if _, dup := seen[h>>x]; dup {
				tc++
			}
			seen[h>>x] = struct{}{}
			c.Insert(k)
		}
		out = append(out, LowMixingPoint{
			Discard: x,
			BColl:   c.Stats().BucketCollisions,
			TColl:   tc,
		})
	}
	return out
}
