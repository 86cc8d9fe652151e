package sepe_test

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
)

// The performance budgets that tier-1 tests enforce. Measured costs
// live in one place, the per-layer rows of the repository benchmark
// (bash benchmark/run.sh … --trace 1); these tests only gate what must
// never regress: zero allocations on every hot path, a disabled
// Instrument wrapper that only delegates, and loose timing
// ceilings on the full observability plane.
//
// The observability budget: with the full plane enabled — registry
// flight recorder, SLO latency histograms with exemplars, per-op
// probe histograms, drift monitor — the operational hot path must
// stay at 0 allocs/op and within 12% of the uninstrumented build. The
// recorder itself never sits on the per-op path (only state
// transitions and migrations record events), so the budget is the
// sampled histogram/exemplar arithmetic. The headline overhead is
// measured on an instrumented hash feeding an observed map over a
// memory-resident working set (TestObsPairedOverhead, 64Ki keys),
// because that is the unit of work an operator's SLO covers.

func benchHash(b *testing.B, fn sepe.HashFunc, keys []string) {
	b.ReportAllocs()
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += fn(keys[i%len(keys)])
	}
	telemetrySink = acc
}

var telemetrySink uint64

func benchSetup(b *testing.B) (sepe.HashFunc, []string, *sepe.Format) {
	b.Helper()
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		b.Fatal(err)
	}
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		b.Fatal(err)
	}
	return h.Func(), f.Samples(1024, 42), f
}

// obsRegistry builds a registry with every observability feature an
// operator would enable: the flight recorder is on by default, and a
// redactor is installed to prove redaction is snapshot-time-only
// (it must cost nothing per operation).
func obsRegistry() *sepe.MetricsRegistry {
	reg := sepe.NewMetricsRegistry()
	reg.SetRedactor(func(string) string { return "[redacted]" })
	return reg
}

func BenchmarkObsPextRaw(b *testing.B) {
	fn, keys, _ := benchSetup(b)
	benchHash(b, fn, keys)
}

func BenchmarkObsPextFullPlane(b *testing.B) {
	fn, keys, f := benchSetup(b)
	reg := obsRegistry()
	m := reg.NewHash("obs")
	d := reg.NewDrift("obs", f.Matches, sepe.DriftConfig{})
	benchHash(b, sepe.Instrument(fn, m, d), keys)
}

// TestObsPairedOverhead measures the full plane's overhead on the
// bare hash and on the map path. Sequential `go test -bench`
// invocations on a busy host drift by tens of percent between
// benchmarks, which swamps nanosecond-scale deltas. The hash path
// interleaves raw and instrumented rounds and takes per-side minima;
// the map paths use ABBA round pairs (raw, observed, observed, raw)
// and report the median of the per-round deltas, which cancels both
// linear drift within a round and the millisecond noise epochs of a
// shared host. The gate is deliberately loose (the benchmark's
// telemetry.hook_ns row is the measured cost): it fails only when the
// full plane costs more than 25% on the memory-resident map path,
// twice the 12% budget.
func TestObsPairedOverhead(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing-sensitive")
	}
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	raw := h.Func()
	reg := obsRegistry()
	full := sepe.Instrument(raw, reg.NewHash("obs"),
		reg.NewDrift("obs", f.Matches, sepe.DriftConfig{}))
	keys := f.Samples(1024, 42)

	const inner = 1 << 20
	time1 := func(fn sepe.HashFunc) time.Duration {
		start := time.Now()
		var acc uint64
		for i := 0; i < inner; i++ {
			acc += fn(keys[i&1023])
		}
		telemetrySink = acc
		return time.Since(start)
	}
	minRaw, minFull := time.Hour, time.Hour
	for r := 0; r < 40; r++ {
		if d := time1(raw); d < minRaw {
			minRaw = d
		}
		if d := time1(full); d < minFull {
			minFull = d
		}
	}
	t.Logf("hash: raw %.3f full %.3f ns/op, overhead %.1f%%",
		float64(minRaw.Nanoseconds())/inner, float64(minFull.Nanoseconds())/inner,
		100*(float64(minFull)/float64(minRaw)-1))

	for _, size := range []int{1024, 1 << 16} {
		mraw := sepe.NewMap[int](raw)
		mobs := sepe.NewMap[int](full, sepe.Observed(reg, fmt.Sprintf("obs%d", size)))
		mkeys := f.Samples(size, 9)
		for i, k := range mkeys {
			mraw.Put(k, i)
			mobs.Put(k, i)
		}
		const mops = 1 << 15
		timeMap := func(m *sepe.Map[int]) time.Duration {
			start := time.Now()
			n := 0
			for i := 0; i < mops; i++ {
				k := mkeys[(i*7)%size]
				m.Put(k, i)
				if _, ok := m.Get(k); ok {
					n++
				}
			}
			telemetrySink += uint64(n)
			return time.Since(start)
		}
		var deltas, raws []float64
		for r := 0; r < 60; r++ {
			a1 := timeMap(mraw)
			b1 := timeMap(mobs)
			b2 := timeMap(mobs)
			a2 := timeMap(mraw)
			deltas = append(deltas, float64(b1+b2-a1-a2)/2/mops)
			raws = append(raws, float64(a1+a2)/2/mops)
		}
		sort.Float64s(deltas)
		sort.Float64s(raws)
		delta, base := deltas[len(deltas)/2], raws[len(raws)/2]
		overhead := 100 * delta / base
		t.Logf("map %6d keys: raw %.1f ns/(put+get), plane +%.2f ns, overhead %.1f%%",
			size, base, delta, overhead)
		if size == 1<<16 && overhead > 25 {
			t.Errorf("full plane costs %.1f%% on the memory-resident map path (budget 12%%, gate 25%%)", overhead)
		}
	}
}

// TestObservabilityZeroAllocs pins the 0 allocs/op half of the
// acceptance bar with the full plane enabled: the instrumented hash,
// the observed map, and the observed sharded map.
func TestObservabilityZeroAllocs(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	reg := obsRegistry()
	fn := sepe.Instrument(h.Func(), reg.NewHash("obs"),
		reg.NewDrift("obs", f.Matches, sepe.DriftConfig{}))
	keys := f.Samples(256, 7)
	i := 0
	if n := testing.AllocsPerRun(4096, func() { fn(keys[i%len(keys)]); i++ }); n != 0 {
		t.Errorf("full-plane instrumented hash allocates %.2f per op", n)
	}

	m := sepe.NewMap[int](fn, sepe.Observed(reg, "obs"))
	for _, k := range keys {
		m.Put(k, 0)
	}
	i = 0
	if n := testing.AllocsPerRun(4096, func() {
		k := keys[i%len(keys)]
		m.Put(k, i)
		m.Get(k)
		i++
	}); n != 0 {
		t.Errorf("observed map Put/Get allocates %.2f per op", n)
	}

	sm := sepe.NewMap[int](h.Func(), sepe.Sharded(0), sepe.Observed(reg, "obs.sharded"))
	for _, k := range keys {
		sm.Put(k, 0)
	}
	i = 0
	if n := testing.AllocsPerRun(4096, func() {
		k := keys[i%len(keys)]
		sm.Put(k, i)
		sm.Get(k)
		sm.Delete(k)
		sm.Put(k, i)
		i++
	}); n != 0 {
		t.Errorf("observed sharded map Put/Get/Delete allocates %.2f per op", n)
	}

	// The plane actually observed something (histograms, exemplars,
	// and the health report are live), and redaction applied.
	s := reg.Snapshot()
	if len(s.Hashes) == 0 || s.Hashes[0].Sampled == 0 {
		t.Fatal("no latency samples recorded")
	}
	if s.Hashes[0].Slowest == nil || s.Hashes[0].Slowest.Key != "[redacted]" {
		t.Fatalf("slowest exemplar missing or unredacted: %+v", s.Hashes[0].Slowest)
	}
	if s.Containers[0].ProbeP50 == 0 && s.Containers[0].ProbeMax == 0 {
		t.Fatal("no probe depths recorded")
	}
	if !s.Health.Ready {
		t.Fatalf("health not ready: %+v", s.Health)
	}
}

// TestObsOverheadSmoke is a loose guard against catastrophic
// regressions of the per-op budget in regular test runs: it only
// fails when the full plane costs more than 3x the raw kernel, far
// above the 12% bar but low enough to catch an accidental mutex or
// allocation on the hot path.
func TestObsOverheadSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing-sensitive")
	}
	raw := testing.Benchmark(BenchmarkObsPextRaw)
	full := testing.Benchmark(BenchmarkObsPextFullPlane)
	if raw.NsPerOp() == 0 {
		t.Skip("clock too coarse")
	}
	ratio := float64(full.NsPerOp()) / float64(raw.NsPerOp())
	t.Logf("raw %dns full %dns ratio %.2f", raw.NsPerOp(), full.NsPerOp(), ratio)
	if ratio > 3 {
		t.Errorf("full observability plane costs %.1fx the raw kernel (budget 1.12x)", ratio)
	}
	if full.AllocsPerOp() != 0 {
		t.Errorf("full plane allocates %d/op", full.AllocsPerOp())
	}
}

// A disabled Instrument wrapper must be free: Instrument(fn, nil,
// nil) delegates to fn, and neither it nor the enabled wrapper
// allocates.
func TestInstrumentDisabledIsIdentity(t *testing.T) {
	calls := 0
	fn := func(string) uint64 { calls++; return 0 }
	wrapped := sepe.Instrument(fn, nil, nil)
	wrapped("x")
	if calls != 1 {
		t.Fatal("disabled wrapper must delegate")
	}
}

func TestInstrumentZeroAllocs(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	key := f.Samples(1, 9)[0]

	disabled := sepe.Instrument(h.Func(), nil, nil)
	if n := testing.AllocsPerRun(1000, func() { disabled(key) }); n != 0 {
		t.Errorf("disabled instrumentation allocates %.1f per op", n)
	}

	reg := sepe.NewMetricsRegistry()
	enabled := sepe.Instrument(h.Func(), reg.NewHash("alloc"),
		reg.NewDrift("alloc", f.Matches, sepe.DriftConfig{}))
	if n := testing.AllocsPerRun(1000, func() { enabled(key) }); n != 0 {
		t.Errorf("enabled instrumentation allocates %.1f per op", n)
	}
}

// TestAdaptiveReadPathZeroAllocs: the steady-state read path may not
// allocate — neither the hash nor a container lookup.
func TestAdaptiveReadPathZeroAllocs(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	ah, err := sepe.NewAdaptiveHash("alloc", f, sepe.Pext, sepe.AdaptiveConfig{
		Registry: sepe.NewMetricsRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ah.Close()
	key := f.Samples(1, 9)[0]
	if n := testing.AllocsPerRun(1000, func() { ah.Hash(key) }); n != 0 {
		t.Errorf("adaptive Hash allocates %.1f per op", n)
	}
	m := sepe.NewMap[int](ah)
	m.Put(key, 1)
	// Let the sampled Observe of the Put settle before measuring.
	time.Sleep(time.Millisecond)
	if n := testing.AllocsPerRun(1000, func() { m.Get(key) }); n != 0 {
		t.Errorf("adaptive Get allocates %.1f per op", n)
	}
}

// TestContainerFillMemoryBudget gates what a fill allocates against the
// storage the map keeps: filling a Sharded(8) Observed map (the repo
// benchmark's table-cold shape, scaled down) and a single-owner map
// with 512 Ki keys each must allocate at most 1.2× the bytes the map
// still holds after a GC, its slots and bucket heads. A table that
// copied every slot on growth allocated about 2× them. The ratio is
// printed with -v; -race leaves it unchanged.
func TestContainerFillMemoryBudget(t *testing.T) {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sepe.Synthesize(f, sepe.Pext)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 512<<10)
	for i := range keys {
		keys[i] = fmt.Sprintf("%03d-%02d-%04d", i/1000000, i/10000%100, i%10000)
	}
	for _, c := range []struct {
		name string
		opts []sepe.ContainerOption
	}{
		{"sharded observed map", []sepe.ContainerOption{sepe.Sharded(8), sepe.Observed(sepe.NewMetricsRegistry(), "fill")}},
		{"single-owner map", nil},
	} {
		m := sepe.NewMap[int](h.Func(), c.opts...)
		var start, filled, kept runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&start)
		for i, k := range keys {
			m.Put(k, i)
		}
		runtime.ReadMemStats(&filled)
		runtime.GC()
		runtime.ReadMemStats(&kept)
		if m.Len() != len(keys) {
			t.Fatalf("%s: %d entries after the fill, want %d", c.name, m.Len(), len(keys))
		}
		allocated := filled.TotalAlloc - start.TotalAlloc
		held := kept.HeapAlloc - start.HeapAlloc
		ratio := float64(allocated) / float64(held)
		t.Logf("%s: fill of %d keys allocated %.1f MB, the map keeps %.1f MB: %.2fx", c.name, len(keys), float64(allocated)/1e6, float64(held)/1e6, ratio)
		if ratio > 1.2 {
			t.Errorf("%s: the fill allocated %.2fx the storage the map keeps, budget 1.2x", c.name, ratio)
		}
	}
}

// TestRegexLoweringAllocsFlat: lowering a repetition builds its form
// once, so ParseRegex("[0-9]{N}") allocates the same number of times
// for N = 16, 1024 and 16384. A lowering that copied the forms built so
// far once per count made 32,884 allocations (4.2 GB) at 16384. The
// counts are printed with -v.
func TestRegexLoweringAllocsFlat(t *testing.T) {
	var counts []float64
	for _, n := range []int{16, 1024, 16384} {
		expr := "[0-9]{" + strconv.Itoa(n) + "}"
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sepe.ParseRegex(expr); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("ParseRegex(%s): %.0f allocs", expr, allocs)
		counts = append(counts, allocs)
	}
	if counts[1] != counts[0] || counts[2] != counts[0] {
		t.Errorf("ParseRegex allocations grow with the repetition count: %v", counts)
	}
}

// TestSynthesisAllocBudget gates what turning a key format into a
// certified hash allocates: ParseRegex and Synthesize(Pext) over the
// paper's eight RQ formats, certificate included. The budget is the
// measured 1,145 allocations (go1.24) with 30% headroom; a lowering
// that copied per repetition count and a certifier that indexed its
// columns through a map made 2,831. The count is printed with -v.
func TestSynthesisAllocBudget(t *testing.T) {
	const budget = 1500
	allocs := testing.AllocsPerRun(20, func() {
		for _, k := range keys.All {
			f, err := sepe.ParseRegex(k.Regex())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sepe.Synthesize(f, sepe.Pext); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("ParseRegex+Synthesize(Pext) over %d RQ formats: %.0f allocs, budget %d", len(keys.All), allocs, budget)
	if allocs > budget {
		t.Errorf("synthesis over the RQ formats allocates %.0f times, budget %d", allocs, budget)
	}
}
