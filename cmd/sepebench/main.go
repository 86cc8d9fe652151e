// Sepebench regenerates every table and figure of the paper's
// evaluation (Section 4 and Appendix A):
//
//	sepebench -exp table1          # Table 1: B-Time/H-Time/B-Coll/T-Coll
//	sepebench -exp fig13,fig14     # x86 box plots
//	sepebench -exp all -quick      # everything, at reduced cost
//
// Experiments: table1, table2, table3, fig13..fig20, fig18worst
// (RQ7's four-digit study), perkey (RQ1's per-key-type breakdown),
// zoo (the Section 2.1 classic-hash comparison), entropy (the
// entropy-learned-hashing extension), or all. The -quick flag shrinks
// samples and key types for a fast smoke run; the default parameters
// match the paper (10 samples × 10 000 affectations × the full
// 144-experiment grid per key type). -plot adds terminal charts,
// -csv dumps every raw grid measurement.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/sepe-go/sepe/internal/bench"
	"github.com/sepe-go/sepe/internal/codegen"
	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/cpu"
	"github.com/sepe-go/sepe/internal/dash"
	"github.com/sepe-go/sepe/internal/entropy"
	"github.com/sepe-go/sepe/internal/hashes"
	"github.com/sepe-go/sepe/internal/infer"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/pattern"
	"github.com/sepe-go/sepe/internal/rex"
	"github.com/sepe-go/sepe/internal/stats"
	"github.com/sepe-go/sepe/internal/telemetry"
	"github.com/sepe-go/sepe/internal/textplot"
)

// Aliases keeping the zoo experiment readable.
var (
	hashesSTL = hashes.STL
	hashesZoo = hashes.Zoo
)

func nowNano() int64 { return time.Now().UnixNano() }

func rexLower(expr string) (*pattern.Pattern, error) { return rex.ParseAndLower(expr) }

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiments (table1..3, fig13..20, all)")
		samples   = flag.Int("samples", 10, "samples per experiment")
		affect    = flag.Int("affect", bench.DefaultAffectations, "affectations per sample")
		quick     = flag.Bool("quick", false, "reduced cost: fewer samples, key types and uniformity keys")
		keysFlag  = flag.String("keys", "", "comma-separated key types (default: all eight)")
		uniKeys   = flag.Int("uniformity-keys", bench.UniformityKeys, "keys per uniformity measurement (RQ3)")
		showProgr = flag.Bool("progress", true, "print progress to stderr")
		csvPath   = flag.String("csv", "", "also write every raw grid measurement to this CSV file")
		plot      = flag.Bool("plot", false, "render figures as terminal charts in addition to the tables")
		telemAddr = flag.String("telemetry", "",
			"serve live metrics (Prometheus text, or JSON with ?format=json) on this address while experiments run, e.g. :9090")
		driftInj = flag.String("drift-inject", "",
			"run the self-healing demo instead of experiments: FROM:TO key types, e.g. ssn:ipv4")
		noHW = flag.Bool("nohw", false,
			"disable the BMI2/AES-NI hardware kernels; synthesized functions run on the portable software tier")
		parallelN = flag.Int("parallel", 0,
			"run the concurrent-container drive from N goroutines instead of experiments (0 = off; negative = GOMAXPROCS)")
		certify = flag.Bool("certify", false,
			"certify every family over the eight RQ key formats instead of running experiments: emit the JSON certificate report (BENCH_certify.json) and exit non-zero on any certifier finding")
		floodExp = flag.Bool("flood", false,
			"run the hash-flood resistance experiment instead of experiments: mine attack key sets against unseeded functions, replay them against seeded deployments, emit the JSON report (BENCH_flood.json) and exit non-zero if any seeded deployment strays >2 sigma from a random oracle")
		traffic = flag.Bool("traffic", false,
			"run the fault-injecting production traffic simulator instead of experiments: multi-tenant phased load with drift and flood injection against seeded adaptive hashes; exits non-zero if any tenant fails to recover")
		trafficOps  = flag.Int("traffic-ops", 400000, "total simulated operations for -traffic")
		trafficSeed = flag.Uint64("traffic-seed", 1, "PRNG seed for -traffic key streams and phase noise")
		watch       = flag.Bool("watch", false,
			"render a live sepetop-style dashboard of the default metrics registry to stderr while experiments run (implies -progress=false)")
	)
	flag.Parse()

	if *noHW {
		cpu.SetBMI2(false)
		cpu.SetAES(false)
	}

	if *certify {
		if err := runCertify(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sepebench:", err)
			os.Exit(1)
		}
		return
	}

	if *floodExp {
		if err := runFlood(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sepebench:", err)
			os.Exit(1)
		}
		return
	}

	if *traffic {
		if err := runTraffic(os.Stdout, *trafficOps, *trafficSeed); err != nil {
			fmt.Fprintln(os.Stderr, "sepebench:", err)
			os.Exit(1)
		}
		return
	}

	if *parallelN != 0 {
		if err := runParallel(*parallelN); err != nil {
			fmt.Fprintln(os.Stderr, "sepebench:", err)
			os.Exit(1)
		}
		return
	}

	if *driftInj != "" {
		if err := runDriftInject(*driftInj); err != nil {
			fmt.Fprintln(os.Stderr, "sepebench:", err)
			os.Exit(1)
		}
		return
	}

	r := &runner{
		samples: *samples,
		affect:  *affect,
		uniKeys: *uniKeys,
		types:   keys.All,
		plot:    *plot,
	}
	if *quick {
		r.samples = 2
		r.affect = 2000
		r.uniKeys = 20000
		r.types = []keys.Type{keys.SSN, keys.IPv4, keys.URL1}
	}
	if *keysFlag != "" {
		types, err := parseTypes(*keysFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sepebench:", err)
			os.Exit(2)
		}
		r.types = types
	}
	if *showProgr && !*watch {
		r.progress = func(s string) { fmt.Fprintf(os.Stderr, "  … %s\n", s) }
	}
	if *telemAddr != "" {
		if err := serveTelemetry(*telemAddr, r); err != nil {
			fmt.Fprintln(os.Stderr, "sepebench:", err)
			os.Exit(1)
		}
	}
	if *watch {
		registerWatchGauges(r)
		go watchLoop(os.Stderr, 2*time.Second)
	}

	exps := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		exps = []string{"table1", "fig13", "fig14", "table2", "fig15", "table3",
			"fig16", "fig17", "fig18", "fig18worst", "fig19", "fig20", "zoo", "entropy", "perkey"}
	}
	for _, e := range exps {
		if err := r.run(strings.TrimSpace(e)); err != nil {
			fmt.Fprintln(os.Stderr, "sepebench:", err)
			os.Exit(1)
		}
		r.expsDone.Add(1)
	}
	if *csvPath != "" {
		if err := r.writeCSV(*csvPath); err != nil {
			fmt.Fprintln(os.Stderr, "sepebench:", err)
			os.Exit(1)
		}
	}
}

// writeCSV dumps every raw measurement of the grids this invocation
// ran, one row per sample, for external analysis.
func (r *runner) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{
		"target", "key", "structure", "dist", "spread", "mode",
		"hash", "sample", "btime_ns", "htime_ns", "bcoll", "tcoll",
	}); err != nil {
		return err
	}
	dump := func(target string, ms []bench.Measurement) error {
		for _, m := range ms {
			rec := []string{
				target,
				m.Cfg.Key.Name(),
				m.Cfg.Structure.String(),
				m.Cfg.Dist.String(),
				fmt.Sprint(m.Cfg.Spread),
				m.Cfg.Mode.String(),
				string(m.Hash),
				fmt.Sprint(m.Sample),
				fmt.Sprint(m.Res.BTime.Nanoseconds()),
				fmt.Sprint(m.Res.HTime.Nanoseconds()),
				fmt.Sprint(m.Res.BColl),
				fmt.Sprint(m.Res.TColl),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		return nil
	}
	if err := dump("x86-64", r.x86Grid); err != nil {
		return err
	}
	if err := dump("aarch64", r.armGrid); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func parseTypes(s string) ([]keys.Type, error) {
	var out []keys.Type
	for _, name := range strings.Split(s, ",") {
		found := false
		for _, t := range keys.All {
			if strings.EqualFold(t.Name(), strings.TrimSpace(name)) {
				out = append(out, t)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown key type %q", name)
		}
	}
	return out, nil
}

type runner struct {
	samples  int
	affect   int
	uniKeys  int
	types    []keys.Type
	progress func(string)
	plot     bool

	expsDone      atomic.Int64 // experiments completed (telemetry gauge)
	progressSteps atomic.Int64 // progress callbacks fired (telemetry gauge)

	x86Grid []bench.Measurement // cached full grid on x86
	armGrid []bench.Measurement // cached full grid on aarch64
}

// serveTelemetry exposes the process-wide metrics registry over HTTP
// for the duration of the run and registers run-progress gauges, so a
// long grid can be watched from a browser or scraped by Prometheus.
func serveTelemetry(addr string, r *runner) error {
	registerWatchGauges(r)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.Default.Handler())
	mux.Handle("/healthz", telemetry.Default.HealthHandler())
	mux.Handle("/readyz", telemetry.Default.HealthHandler())
	mux.Handle("/trace", telemetry.Default.Recorder().Handler())
	mux.Handle("/", telemetry.Default.Handler())
	fmt.Fprintf(os.Stderr, "telemetry: serving metrics on http://%s/metrics\n", ln.Addr())
	go http.Serve(ln, mux)
	return nil
}

// watchRegistered dedupes registration when both -telemetry and
// -watch are set, so the progress callback is not wrapped twice
// (which would double-count sepe_bench_progress_steps).
var watchRegistered bool

// registerWatchGauges hooks run-progress counters into the default
// registry for the -telemetry endpoint and the -watch dashboard.
func registerWatchGauges(r *runner) {
	if watchRegistered {
		return
	}
	watchRegistered = true
	inner := r.progress
	r.progress = func(s string) {
		r.progressSteps.Add(1)
		if inner != nil {
			inner(s)
		}
	}
	telemetry.Default.Gauge("sepe_bench_experiments_done",
		func() float64 { return float64(r.expsDone.Load()) })
	telemetry.Default.Gauge("sepe_bench_progress_steps",
		func() float64 { return float64(r.progressSteps.Load()) })
}

// watchLoop redraws a sepetop-style frame of the default registry
// until the process exits — the -watch live view of a long grid run.
func watchLoop(w io.Writer, every time.Duration) {
	d := dash.New(100)
	for {
		time.Sleep(every)
		fmt.Fprint(w, "\x1b[H\x1b[2J")
		fmt.Fprint(w, d.Frame(telemetry.Default.Snapshot(), time.Now()))
	}
}

func (r *runner) run(exp string) error {
	switch exp {
	case "table1":
		return r.table1()
	case "table2":
		return r.table2()
	case "table3":
		return r.table3()
	case "fig13":
		return r.fig13()
	case "fig14":
		return r.fig14()
	case "fig15":
		return r.fig15()
	case "fig16":
		return r.fig16()
	case "fig17":
		return r.lowMixing("fig17", "Figure 17: bucket collisions in a low-mixing container", true)
	case "fig18":
		return r.lowMixing("fig18", "Figure 18: true collisions in a low-mixing container", false)
	case "fig19":
		return r.fig19()
	case "fig20":
		return r.fig20()
	case "zoo":
		return r.zoo()
	case "fig18worst":
		return r.fourDigitWorstCase()
	case "entropy":
		return r.entropyComparison()
	case "perkey":
		return r.perKeyImprovement()
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// perKeyImprovement prints RQ1's per-key-type view: the geometric-mean
// B-Time of STL versus the best synthesized family, per key type (the
// paper reports improvements "ranging from 3.78% to 9.5% for MAC/SSN
// and URL1").
func (r *runner) perKeyImprovement() error {
	ms, err := r.grid(core.TargetX86)
	if err != nil {
		return err
	}
	header("RQ1 per key type: best synthesized family vs STL (geomean B-Time)")
	byKH := map[keys.Type]map[bench.HashName][]float64{}
	for _, m := range ms {
		if byKH[m.Cfg.Key] == nil {
			byKH[m.Cfg.Key] = map[bench.HashName][]float64{}
		}
		byKH[m.Cfg.Key][m.Hash] = append(byKH[m.Cfg.Key][m.Hash], btimeMS(m.Res))
	}
	fmt.Printf("%-8s %10s %8s %10s %9s\n", "Key", "STL ms", "Best", "Best ms", "Improv")
	for _, t := range r.types {
		rows := byKH[t]
		if rows == nil {
			continue
		}
		stl, err := stats.GeoMean(rows[bench.STL])
		if err != nil {
			return err
		}
		bestName, best := bench.HashName(""), 0.0
		for _, name := range bench.SyntheticHashes {
			if len(rows[name]) == 0 {
				continue
			}
			g, err := stats.GeoMean(rows[name])
			if err != nil {
				return err
			}
			if bestName == "" || g < best {
				bestName, best = name, g
			}
		}
		fmt.Printf("%-8s %10.3f %8s %10.3f %8.1f%%\n",
			t.Name(), stl, bestName, best, 100*(stl-best)/stl)
	}
	return nil
}

// entropyComparison pits SEPE's lattice-driven OffXor against the
// related-work approach the paper singles out (entropy-learned
// hashing, Hentschel et al.): same goal — skip low-information
// bytes — different mechanism (inlined loads vs statistical position
// selection feeding a general hash). Columns: per-key hashing time
// and true collisions over 10 000 uniform keys.
func (r *runner) entropyComparison() error {
	header("Extension: entropy-learned hashing vs SEPE (uniform keys)")
	fmt.Printf("%-8s %12s %12s %12s %8s %8s %8s\n",
		"Key", "OffXor ns", "Entropy ns", "STL ns", "OX TC", "EL TC", "STL TC")
	for _, t := range r.types {
		offxor, err := bench.HashFor(bench.OffXor, t, core.TargetX86)
		if err != nil {
			return err
		}
		sample := keys.NewGenerator(t, keys.Uniform, 0x5A11).Distinct(2000)
		learned, _, err := entropy.Learned(sample, 64, hashesSTL)
		if err != nil {
			return err
		}
		pool := keys.NewGenerator(t, keys.Uniform, 0x5A12).Distinct(10000)
		measure := func(f func(string) uint64) (float64, int) {
			var acc uint64
			start := nowNano()
			for rep := 0; rep < 20; rep++ {
				for _, k := range pool {
					acc += f(k)
				}
			}
			el := float64(nowNano()-start) / float64(20*len(pool))
			_ = acc
			seen := make(map[uint64]struct{}, len(pool))
			tc := 0
			for _, k := range pool {
				h := f(k)
				if _, dup := seen[h]; dup {
					tc++
				}
				seen[h] = struct{}{}
			}
			return el, tc
		}
		ons, otc := measure(offxor)
		ens, etc := measure(learned)
		sns, stc := measure(hashesSTL)
		fmt.Printf("%-8s %12.2f %12.2f %12.2f %8d %8d %8d\n",
			t.Name(), ons, ens, sns, otc, etc, stc)
	}
	return nil
}

// fourDigitWorstCase reproduces RQ7's final discussion: four-digit
// integer keys (forced short-key Pext, 16 relevant bits) in a
// container indexing by the 32 most- vs least-significant hash bits.
// The paper: with MSB indexing Pext loses catastrophically (9 999 true
// collisions — every truncated hash is zero); with LSB indexing the
// two functions behave similarly.
func (r *runner) fourDigitWorstCase() error {
	header("Figure 18 (worst case): four-digit keys, 32-bit truncated indexing")
	pat, err := rexLower(`[0-9]{4}`)
	if err != nil {
		return err
	}
	pextFn, err := core.Synthesize(pat, core.Pext, core.Options{AllowShort: true})
	if err != nil {
		return err
	}
	pool := make([]string, 10000)
	for i := range pool {
		pool[i] = fmt.Sprintf("%04d", i)
	}
	count := func(f func(string) uint64, shift uint, mask uint64) (bc, tc int) {
		set := container.New(container.SetKind, f, func(h uint64, buckets int) int {
			return int((h >> shift & mask) % uint64(buckets))
		})
		seen := map[uint64]bool{}
		for _, k := range pool {
			h := f(k) >> shift & mask
			if seen[h] {
				tc++
			}
			seen[h] = true
			set.Insert(k)
		}
		return set.Stats().BucketCollisions, tc
	}
	fmt.Printf("%-22s %8s %8s\n", "Configuration", "B-Coll", "T-Coll")
	for _, row := range []struct {
		name  string
		f     func(string) uint64
		shift uint
	}{
		{"STL, 32 MSB", hashesSTL, 32},
		{"Pext, 32 MSB", pextFn.Func(), 32},
		{"STL, 32 LSB", hashesSTL, 0},
		{"Pext, 32 LSB", pextFn.Func(), 0},
	} {
		bc, tc := count(row.f, row.shift, 0xFFFFFFFF)
		fmt.Printf("%-22s %8d %8d\n", row.name, bc, tc)
	}
	fmt.Println("(SEPE does not synthesize sub-8-byte formats by default; this is the forced path.)")
	return nil
}

// zoo reproduces the informal Stack Overflow comparison the paper's
// Section 2.1 cites: the libstdc++ murmur variant against eight
// classic string hashes, on three workloads (short formatted keys,
// long keys, and English-like words), measuring speed and collisions.
func (r *runner) zoo() error {
	header("Section 2.1: the classic-hash comparison (murmur vs the zoo)")
	type entry struct {
		name string
		f    func(string) uint64
	}
	fns := []entry{{"STL-murmur", hashesSTL}}
	names := make([]string, 0, len(hashesZoo))
	for name := range hashesZoo {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, n := range names {
		fns = append(fns, entry{n, hashesZoo[n]})
	}
	workloads := []struct {
		name string
		gen  func(i int) string
	}{
		{"ssn", func(i int) string { return fmt.Sprintf("%03d-%02d-%04d", i%1000, (i/1000)%100, i%10000) }},
		{"long", func(i int) string {
			return fmt.Sprintf("https://host/%032x/%032x", i*2654435761, i*40503)
		}},
		{"words", func(i int) string {
			return fmt.Sprintf("w%s%s", strings.Repeat("ab", i%5+1), fmt.Sprintf("%d", i))
		}},
	}
	fmt.Printf("%-14s", "Function")
	for _, w := range workloads {
		fmt.Printf(" %10s %8s", w.name+" ns", "coll")
	}
	fmt.Println()
	const n = 20000
	for _, fn := range fns {
		fmt.Printf("%-14s", fn.name)
		for _, w := range workloads {
			pool := make([]string, n)
			for i := range pool {
				pool[i] = w.gen(i)
			}
			var acc uint64
			start := nowNano()
			for rep := 0; rep < 10; rep++ {
				for _, k := range pool {
					acc += fn.f(k)
				}
			}
			el := nowNano() - start
			_ = acc
			seen := map[uint64]bool{}
			coll := 0
			for _, k := range pool {
				h := fn.f(k)
				if seen[h] {
					coll++
				}
				seen[h] = true
			}
			fmt.Printf(" %10.2f %8d", float64(el)/float64(10*n), coll)
		}
		fmt.Println()
	}
	return nil
}

func (r *runner) grid(tgt core.Target) ([]bench.Measurement, error) {
	cache := &r.x86Grid
	if tgt.Name == core.TargetAarch64.Name {
		cache = &r.armGrid
	}
	if *cache != nil {
		return *cache, nil
	}
	ms, err := bench.RunGrid(r.types, bench.AllHashes, bench.Options{
		Samples:      r.samples,
		Affectations: r.affect,
		Target:       tgt,
		Progress:     r.progress,
	})
	if err != nil {
		return nil, err
	}
	*cache = ms
	return ms, nil
}

func header(title string) {
	fmt.Println()
	fmt.Println("=== " + title + " ===")
}

// table1 prints the paper's Table 1: aggregate B-Time, H-Time, B-Coll
// and T-Coll per function under the normal key distribution.
func (r *runner) table1() error {
	ms, err := r.grid(core.TargetX86)
	if err != nil {
		return err
	}
	var normal []bench.Measurement
	for _, m := range ms {
		if m.Cfg.Dist == keys.Normal {
			normal = append(normal, m)
		}
	}
	aggs := bench.Aggregates(normal)
	sortAggs(aggs)
	header("Table 1: performance comparison (normal key distribution)")
	fmt.Printf("%-8s %10s %10s %10s %8s\n", "Function", "B-Time(ms)", "H-Time(ms)", "B-Coll", "T-Coll")
	byName := map[bench.HashName]bench.Aggregate{}
	for _, a := range aggs {
		fmt.Printf("%-8s %10.3f %10.4f %10.1f %8d\n", a.Hash, a.BTime, a.HTime, a.BColl, a.TColl)
		byName[a.Hash] = a
	}
	// The paper's Mann-Whitney U comparisons over the B-Time samples:
	// OffXor vs Naive statistically equivalent (p = 0.51 in the paper),
	// City vs STL equivalent (p = 0.44), synthetics vs STL different.
	fmt.Println("\nMann-Whitney U (B-Time samples, two-sided p):")
	pairs := [][2]bench.HashName{
		{bench.OffXor, bench.Naive},
		{bench.City, bench.STL},
		{bench.OffXor, bench.STL},
		{bench.Pext, bench.OffXor},
		{bench.Aes, bench.OffXor},
	}
	for _, pr := range pairs {
		a, aok := byName[pr[0]]
		c, cok := byName[pr[1]]
		if !aok || !cok {
			continue
		}
		_, p, err := stats.MannWhitney(a.BTimes, c.BTimes)
		if err != nil {
			return err
		}
		fmt.Printf("  %-7s vs %-7s p = %.4f\n", pr[0], pr[1], p)
	}
	return nil
}

// table2 prints the RQ3 uniformity table: χ² normalized by STL, per
// function and distribution, aggregated over key types by geomean.
func (r *runner) table2() error {
	header("Table 2: hash uniformity (χ² normalized to STL; lower = more uniform)")
	agg := map[bench.HashName]map[keys.Distribution][]float64{}
	for _, t := range r.types {
		if r.progress != nil {
			r.progress(fmt.Sprintf("uniformity/%v", t))
		}
		table, err := bench.UniformityTable(t, bench.AllHashes, r.uniKeys)
		if err != nil {
			return err
		}
		for name, row := range table {
			if agg[name] == nil {
				agg[name] = map[keys.Distribution][]float64{}
			}
			for d, v := range row {
				if v <= 0 {
					v = 1e-9
				}
				agg[name][d] = append(agg[name][d], v)
			}
		}
	}
	fmt.Printf("%-8s %12s %12s %12s\n", "Function", "Inc", "Normal", "Uniform")
	for _, name := range bench.AllHashes {
		row := agg[name]
		if row == nil {
			continue
		}
		g := func(d keys.Distribution) float64 {
			v, err := stats.GeoMean(row[d])
			if err != nil {
				return 0
			}
			return v
		}
		fmt.Printf("%-8s %12.2f %12.2f %12.2f\n", name, g(keys.Inc), g(keys.Normal), g(keys.Uniform))
	}
	return nil
}

// table3 prints the RQ5 table: BT and TC per function and distribution.
func (r *runner) table3() error {
	ms, err := r.grid(core.TargetX86)
	if err != nil {
		return err
	}
	header("Table 3: key distribution impact (BT ms / TC)")
	fmt.Printf("%-8s %9s %8s %9s %8s %9s %8s\n",
		"Function", "Inc BT", "Inc TC", "Norm BT", "Norm TC", "Unif BT", "Unif TC")
	type cell struct {
		bt float64
		tc int
	}
	rows := map[bench.HashName]map[keys.Distribution]cell{}
	for _, d := range keys.Distributions {
		var sub []bench.Measurement
		for _, m := range ms {
			if m.Cfg.Dist == d {
				sub = append(sub, m)
			}
		}
		for _, a := range bench.Aggregates(sub) {
			if rows[a.Hash] == nil {
				rows[a.Hash] = map[keys.Distribution]cell{}
			}
			rows[a.Hash][d] = cell{bt: a.BTime, tc: a.TColl}
		}
	}
	for _, name := range bench.AllHashes {
		row := rows[name]
		if row == nil {
			continue
		}
		fmt.Printf("%-8s %9.3f %8d %9.3f %8d %9.3f %8d\n", name,
			row[keys.Inc].bt, row[keys.Inc].tc,
			row[keys.Normal].bt, row[keys.Normal].tc,
			row[keys.Uniform].bt, row[keys.Uniform].tc)
	}
	return nil
}

func (r *runner) boxplotFigure(title string, ms []bench.Measurement, metric func(bench.Result) float64, exclude map[bench.HashName]bool) {
	header(title)
	byHash := map[bench.HashName][]float64{}
	for _, m := range ms {
		if exclude[m.Hash] {
			continue
		}
		byHash[m.Hash] = append(byHash[m.Hash], metric(m.Res))
	}
	names := make([]bench.HashName, 0, len(byHash))
	for n := range byHash {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	fmt.Printf("%-8s %9s %9s %9s %9s %9s %9s %6s\n",
		"Function", "min", "q1", "median", "q3", "max", "mean", "n")
	var boxes []textplot.Box
	for _, n := range names {
		b := stats.Summarize(byHash[n])
		fmt.Printf("%-8s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %6d\n",
			n, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean, b.N)
		boxes = append(boxes, textplot.Box{Label: string(n), Summary: b})
	}
	if r.plot {
		textplot.SortBoxesByMedian(boxes)
		fmt.Println()
		fmt.Print(textplot.BoxPlot(boxes, 78))
	}
}

func btimeMS(res bench.Result) float64 { return float64(res.BTime.Nanoseconds()) / 1e6 }

// fig13: x86 B-Time box plots (Gperf excluded, as in the paper; its
// aggregate appears in Table 1).
func (r *runner) fig13() error {
	ms, err := r.grid(core.TargetX86)
	if err != nil {
		return err
	}
	r.boxplotFigure("Figure 13: B-Time box plot, x86 (ms; Gperf and Gpt excluded as in the paper)",
		ms, btimeMS, map[bench.HashName]bool{bench.Gperf: true, bench.Gpt: true})
	return nil
}

// fig14: bucket-collision box plots.
func (r *runner) fig14() error {
	ms, err := r.grid(core.TargetX86)
	if err != nil {
		return err
	}
	r.boxplotFigure("Figure 14: bucket collisions box plot (10 000 keys)",
		ms, func(res bench.Result) float64 { return float64(res.BColl) }, nil)
	return nil
}

// fig15: aarch64 B-Time box plots (no Pext), plus the code-size view
// of RQ4: bytes of emitted source per family and target.
func (r *runner) fig15() error {
	ms, err := r.grid(core.TargetAarch64)
	if err != nil {
		return err
	}
	r.boxplotFigure("Figure 15: B-Time box plot, aarch64 target (no Pext; ms)",
		ms, btimeMS, map[bench.HashName]bool{bench.Gperf: true, bench.Gpt: true})

	fmt.Println("\nGenerated code size (bytes of emitted C++, by family and key type):")
	fmt.Printf("%-8s", "Key")
	for _, fam := range core.Families {
		fmt.Printf(" %8s", fam)
	}
	fmt.Println()
	for _, t := range r.types {
		pat, err := rexLower(t.Regex())
		if err != nil {
			return err
		}
		fmt.Printf("%-8s", t.Name())
		for _, fam := range core.Families {
			for _, tgt := range []core.Target{core.TargetX86} {
				plan, err := core.BuildPlan(pat, fam, core.Options{Target: tgt})
				if err != nil {
					return err
				}
				fmt.Printf(" %8d", len(codegen.CPP(plan, codegen.CPPOptions{})))
			}
		}
		fmt.Println()
	}
	return nil
}

// fig16: synthesis time vs key size, per family, with Pearson r (RQ6).
func (r *runner) fig16() error {
	header("Figure 16: synthesis time vs key size (keys 2^4..2^14 digits)")
	fmt.Printf("%-8s", "size")
	for _, f := range core.Families {
		fmt.Printf(" %12s", f)
	}
	fmt.Println()
	series := map[core.Family][]bench.SynthesisPoint{}
	for _, f := range core.Families {
		pts, err := bench.SynthesisScaling(f, 4, 14, 3)
		if err != nil {
			return err
		}
		series[f] = pts
	}
	for i := range series[core.Naive] {
		fmt.Printf("%-8d", series[core.Naive][i].KeySize)
		for _, f := range core.Families {
			fmt.Printf(" %10.3fµs", float64(series[f][i].Elapsed.Nanoseconds())/1e3)
		}
		fmt.Println()
	}
	fmt.Printf("Pearson r:")
	for _, f := range core.Families {
		r, err := bench.PearsonOfScaling(series[f])
		if err != nil {
			return err
		}
		fmt.Printf("  %v=%.4f", f, r)
	}
	fmt.Println()
	return nil
}

// lowMixing: figures 17 and 18 (RQ7).
func (r *runner) lowMixing(_, title string, buckets bool) error {
	header(title)
	discards := []uint{0, 8, 16, 24, 32, 40, 48, 56}
	fmt.Printf("%-8s", "X")
	for _, x := range discards {
		fmt.Printf(" %9d", x)
	}
	fmt.Println()
	for _, name := range bench.AllHashes {
		if name == bench.Gperf || name == bench.Gpt {
			continue
		}
		totals := make([]int, len(discards))
		for _, t := range r.types {
			f, err := bench.HashFor(name, t, core.TargetX86)
			if err != nil {
				return err
			}
			pts := bench.LowMixing(f, t, keys.Uniform, discards, bench.CollisionKeys)
			for i, p := range pts {
				if buckets {
					totals[i] += p.BColl
				} else {
					totals[i] += p.TColl
				}
			}
		}
		fmt.Printf("%-8s", name)
		for _, v := range totals {
			fmt.Printf(" %9d", v/len(r.types))
		}
		fmt.Println()
	}
	return nil
}

// fig19: hash time vs key size (RQ8).
func (r *runner) fig19() error {
	header("Figure 19: hashing time vs key size (ns/key, digits of 2^4..2^14 bytes)")
	names := []bench.HashName{bench.Pext, bench.STL, bench.City, bench.FNV, bench.Abseil}
	series := map[bench.HashName][]bench.HashScalingPoint{}
	for _, n := range names {
		if n == bench.Pext {
			// The synthesized function is specialized to one length:
			// synthesize a fresh Pext per key size (the paper does the
			// same — each point is its own synthesized function).
			var pts []bench.HashScalingPoint
			for e := 4; e <= 14; e++ {
				size := 1 << e
				pat, err := infer.Infer([]string{
					strings.Repeat("0", size), strings.Repeat("5", size),
				})
				if err != nil {
					return err
				}
				fn, err := core.Synthesize(pat, core.Pext, core.Options{})
				if err != nil {
					return err
				}
				pts = append(pts, bench.HashScaling(fn.Func(), e, e, 2000)...)
			}
			series[n] = pts
			continue
		}
		f, err := bench.HashFor(n, keys.INTS, core.TargetX86)
		if err != nil {
			return err
		}
		series[n] = bench.HashScaling(f, 4, 14, 2000)
	}
	fmt.Printf("%-8s", "size")
	for _, n := range names {
		fmt.Printf(" %10s", n)
	}
	fmt.Println()
	for i := range series[names[0]] {
		fmt.Printf("%-8d", series[names[0]][i].KeySize)
		for _, n := range names {
			fmt.Printf(" %10.1f", float64(series[n][i].PerKey.Nanoseconds()))
		}
		fmt.Println()
	}
	fmt.Printf("Pearson r:")
	for _, n := range names {
		rr, err := bench.PearsonOfHashScaling(series[n])
		if err != nil {
			return err
		}
		fmt.Printf("  %v=%.4f", n, rr)
	}
	fmt.Println()
	if r.plot {
		var ss []textplot.Series
		for _, n := range names {
			s := textplot.Series{Label: string(n)}
			for _, p := range series[n] {
				s.X = append(s.X, float64(p.KeySize))
				s.Y = append(s.Y, float64(p.PerKey.Nanoseconds()))
			}
			ss = append(ss, s)
		}
		fmt.Println()
		fmt.Print(textplot.LineChart(ss, 70, 16))
	}
	return nil
}

// fig20: B-Time grouped by container kind (RQ9).
func (r *runner) fig20() error {
	ms, err := r.grid(core.TargetX86)
	if err != nil {
		return err
	}
	header("Figure 20: B-Time by container (ms)")
	byKind := map[container.Kind][]float64{}
	for _, m := range ms {
		if m.Hash == bench.Gperf {
			continue
		}
		byKind[m.Cfg.Structure] = append(byKind[m.Cfg.Structure], btimeMS(m.Res))
	}
	fmt.Printf("%-10s %9s %9s %9s %9s %9s %9s\n", "Container", "min", "q1", "median", "q3", "max", "mean")
	for _, k := range container.Kinds {
		b := stats.Summarize(byKind[k])
		fmt.Printf("%-10s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f\n",
			k, b.Min, b.Q1, b.Median, b.Q3, b.Max, b.Mean)
	}
	return nil
}

func sortAggs(aggs []bench.Aggregate) {
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].Hash < aggs[j].Hash })
}
