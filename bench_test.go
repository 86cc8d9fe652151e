// Benchmarks regenerating the code paths of every table and figure in
// the paper's evaluation. One benchmark family per table/figure; the
// full parameter sweeps with the paper's sample counts live in
// cmd/sepebench, which prints the tables themselves.
package sepe_test

import (
	"fmt"
	"testing"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/bench"
	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/keys"
)

var benchSink uint64

// benchKeyTypes keeps the per-table benches readable: one short-key,
// one mid-key and one long-key format.
var benchKeyTypes = []keys.Type{keys.SSN, keys.IPv6, keys.URL1}

// BenchmarkTable1HTime measures pure hashing speed (the H-Time column
// of Table 1) for every function on representative key types.
func BenchmarkTable1HTime(b *testing.B) {
	for _, t := range benchKeyTypes {
		pool := keys.NewGenerator(t, keys.Normal, 1).Distinct(1024)
		for _, name := range bench.AllHashes {
			f, err := bench.HashFor(name, t, core.TargetX86)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%v/%v", t, name), func(b *testing.B) {
				var acc uint64
				for i := 0; i < b.N; i++ {
					acc += f(pool[i&1023])
				}
				benchSink = acc
			})
		}
	}
}

// BenchmarkTable1BTime measures the full affectation workload (the
// B-Time column): hashing plus container operations.
func BenchmarkTable1BTime(b *testing.B) {
	for _, name := range []bench.HashName{bench.STL, bench.City, bench.OffXor, bench.Pext, bench.Aes} {
		f, err := bench.HashFor(name, keys.SSN, core.TargetX86)
		if err != nil {
			b.Fatal(err)
		}
		cfg := bench.Config{
			Key: keys.SSN, Structure: container.MapKind, Dist: keys.Normal,
			Spread: 2000, Mode: bench.Inter70, Affectations: 10000, Seed: 1,
		}
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bench.Run(cfg, f)
				benchSink += uint64(res.Ops)
			}
		})
	}
}

// BenchmarkTable2Uniformity exercises the RQ3 pipeline: key drawing,
// hashing, histogram and χ².
func BenchmarkTable2Uniformity(b *testing.B) {
	for _, name := range []bench.HashName{bench.STL, bench.Pext} {
		f, err := bench.HashFor(name, keys.SSN, core.TargetX86)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chi2, err := bench.Uniformity(f, keys.SSN, keys.Inc, 20000)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += uint64(chi2)
			}
		})
	}
}

// BenchmarkTable3Distributions runs one driver experiment per key
// distribution (the RQ5 table).
func BenchmarkTable3Distributions(b *testing.B) {
	f, err := bench.HashFor(bench.OffXor, keys.IPv4, core.TargetX86)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range keys.Distributions {
		cfg := bench.Config{
			Key: keys.IPv4, Structure: container.MapKind, Dist: d,
			Spread: 2000, Mode: bench.Batched, Affectations: 10000, Seed: 1,
		}
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bench.Run(cfg, f)
				benchSink += uint64(res.BColl)
			}
		})
	}
}

// BenchmarkFig13Grid runs one cell of the Figure 13/14 grid end to
// end (config construction, key drawing, affectations, collisions).
func BenchmarkFig13Grid(b *testing.B) {
	f, err := bench.HashFor(bench.Naive, keys.MAC, core.TargetX86)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.Config{
		Key: keys.MAC, Structure: container.SetKind, Dist: keys.Uniform,
		Spread: 500, Mode: bench.Inter40, Affectations: 10000, Seed: 1,
	}
	for i := 0; i < b.N; i++ {
		res := bench.Run(cfg, f)
		benchSink += uint64(res.TColl)
	}
}

// BenchmarkFig15Aarch64 runs the RQ4 configuration: the aarch64
// target, whose families exclude Pext.
func BenchmarkFig15Aarch64(b *testing.B) {
	for _, name := range []bench.HashName{bench.Naive, bench.OffXor, bench.Aes} {
		f, err := bench.HashFor(name, keys.CPF, core.TargetAarch64)
		if err != nil {
			b.Fatal(err)
		}
		cfg := bench.Config{
			Key: keys.CPF, Structure: container.MapKind, Dist: keys.Normal,
			Spread: 2000, Mode: bench.Inter60, Affectations: 10000, Seed: 1,
		}
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bench.Run(cfg, f)
				benchSink += uint64(res.Ops)
			}
		})
	}
}

// BenchmarkFig16Synthesis measures synthesis time per family and key
// size (the RQ6 scaling experiment).
func BenchmarkFig16Synthesis(b *testing.B) {
	for _, fam := range core.Families {
		for _, e := range []int{4, 8, 12} {
			b.Run(fmt.Sprintf("%v/2e%d", fam, e), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pts, err := bench.SynthesisScaling(fam, e, e, 1)
					if err != nil {
						b.Fatal(err)
					}
					benchSink += uint64(pts[0].KeySize)
				}
			})
		}
	}
}

// BenchmarkSynthesizeRQ times the front end and synthesis over the
// paper's eight RQ formats: ParseRegex alone, then Synthesize with Pext
// and with every family (each certificate included). One op covers all
// eight formats.
func BenchmarkSynthesizeRQ(b *testing.B) {
	var formats []*sepe.Format
	for _, t := range keys.All {
		f, err := sepe.ParseRegex(t.Regex())
		if err != nil {
			b.Fatal(err)
		}
		formats = append(formats, f)
	}
	b.Run("ParseRegex", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, t := range keys.All {
				if _, err := sepe.ParseRegex(t.Regex()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("Pext", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range formats {
				if _, err := sepe.Synthesize(f, sepe.Pext); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("AllFamilies", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range formats {
				if _, err := sepe.SynthesizeAll(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFig17LowMixing sweeps the low-mixing container (RQ7).
func BenchmarkFig17LowMixing(b *testing.B) {
	for _, name := range []bench.HashName{bench.OffXor, bench.STL} {
		f, err := bench.HashFor(name, keys.SSN, core.TargetX86)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := bench.LowMixing(f, keys.SSN, keys.Uniform, []uint{0, 32, 56}, 2000)
				benchSink += uint64(pts[2].TColl)
			}
		})
	}
}

// BenchmarkFig19HashScaling measures per-key hash cost across key
// sizes (RQ8).
func BenchmarkFig19HashScaling(b *testing.B) {
	f, err := bench.HashFor(bench.Pext, keys.INTS, core.TargetX86)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("2e%d", e), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := bench.HashScaling(f, e, e, 64)
				benchSink += uint64(pts[0].PerKey)
			}
		})
	}
}

// BenchmarkFig20Containers measures the affectation workload per
// container kind (RQ9).
func BenchmarkFig20Containers(b *testing.B) {
	f, err := bench.HashFor(bench.OffXor, keys.SSN, core.TargetX86)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range container.Kinds {
		cfg := bench.Config{
			Key: keys.SSN, Structure: k, Dist: keys.Uniform,
			Spread: 2000, Mode: bench.Inter70, Affectations: 10000, Seed: 1,
		}
		b.Run(k.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := bench.Run(cfg, f)
				benchSink += uint64(res.Ops)
			}
		})
	}
}
