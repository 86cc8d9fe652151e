// Command benchmark is the repository's one benchmark. It drives the
// sepe library and the sepeserve daemon from the outside, through
// closed-loop workloads whose inputs it generates from a seed, checks
// every output against an independent oracle, and prints its metrics
// as JSON:
//
//	go run . -workload table-hot -seed 1 -seconds 10 -trace 0
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced
// run (-trace 1) prints the per-layer metrics instead, and with -spans
// writes its spans to a file. Each workload prints two lines: a detail
// object with the environment stamp and sample counts, then the result
// object. -workload all runs the four workloads in turn, each in a
// process of its own. The exit code is 1 when any check failed and 2
// when the run could not be made.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit. The lists below and
// BENCHMARK.json at the repository root describe the same metrics.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"batch_p50_us", "us"},
	{"rss_mb", "MB"},
	{"bcoll_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"rex.parse_us", "us"},
	{"core.synth_us", "us"},
	{"wire.export_us", "us"},
	{"core.hash_ns", "ns"},
	{"core.hashbatch_ns_per_key", "ns"},
	{"container.get_ns", "ns"},
	{"container.put_ns", "ns"},
	{"container.delete_ns", "ns"},
	{"container.self_ns", "ns"},
	{"container.grow_events", "count"},
	{"container.grow_ms", "ms"},
	{"container.max_chain", "count"},
	{"container.load_factor", "ratio"},
	{"shard.self_ns", "ns"},
	{"shard.wait_ns", "ns"},
	{"shard.imbalance", "ratio"},
	{"telemetry.hook_ns", "ns"},
	{"telemetry.observe_ns", "ns"},
	{"adaptive.hash_self_ns", "ns"},
	{"adaptive.tick_ns", "ns"},
	{"adaptive.detect_ms", "ms"},
	{"adaptive.resynth_ms", "ms"},
	{"adaptive.migrate_ms", "ms"},
	{"adaptive.heal_ms", "ms"},
	{"adaptive.migrate_op_ns", "ns"},
	{"adaptive.attempts_per_heal", "count"},
	{"sepeserve.register_ms", "ms"},
	{"sepeserve.import_ms", "ms"},
	{"sepeserve.ttfb_us", "us"},
	{"sepeserve.body_us", "us"},
	{"sepeserve.req_bytes_per_key", "B"},
	{"sepeserve.resp_bytes_per_key", "B"},
	{"sepeserve.hash_share", "ratio"},
	{"bench.client_us", "us"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// bench is one workload: the system it builds and the loop that
// drives it.
type bench interface {
	// setup builds the system under test from the generated inputs;
	// the harness times it and may call it again after teardown.
	setup(tr *tracer) error
	// teardown releases what setup built; an unclean shutdown is a
	// failed check.
	teardown()
	// measure drives the closed loop for about d.
	measure(d time.Duration, tr *tracer) (*stats, error)
	// bcoll is B-Coll per entry of the workload's tables after a fill.
	bcoll() float64
	// rssPID is the process holding the tables or tenants (0: this one).
	rssPID() int
	// ladderTables are the functions and keys the ladder pass replays.
	ladderTables() []ladderTable
	checker() *checker
}

type options struct {
	seed      uint64
	seconds   float64
	trace     bool
	scale     float64
	sepeserve string // daemon binary
	spans     string // directory for span files of traced runs
}

var workloads = []struct {
	name string
	make func(o *options) (bench, error)
}{
	{"table-hot", func(o *options) (bench, error) { return newHotBench(o.seed, o.scale), nil }},
	{"table-cold", func(o *options) (bench, error) { return newColdBench(o.seed, o.scale), nil }},
	{"table-drift", func(o *options) (bench, error) { return newDriftBench(o.seed, o.scale) }},
	{"serve-hash", func(o *options) (bench, error) { return newServeBench(o.seed, o.scale, o.sepeserve) }},
}

// setupReps is how many times a run builds its system; setup_s is the
// median. One set-up takes milliseconds and varies by ±15% within a
// run, so the median needs many.
const setupReps = 21

// traceChunks is how many untraced and how many traced chunks a traced
// run alternates between.
const traceChunks = 4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type detail struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Trace    bool              `json:"trace"`
	Seconds  float64           `json:"seconds"`
	Scale    float64           `json:"scale"`
	Env      map[string]any    `json:"env"`
	Samples  map[string]uint64 `json:"samples"`
	// Ungated holds numbers measured beside the metrics but too
	// unsteady on a shared host to carry a bound.
	Ungated  map[string]float64 `json:"ungated,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the chosen workloads and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		name  = fs.String("workload", "", "table-hot, table-cold, table-drift, serve-hash or all")
		trace = fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	fs.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.Float64Var(&o.scale, "scale", 1, "input size factor in (0, 1], for tests")
	fs.StringVar(&o.sepeserve, "sepeserve", "", "sepeserve binary (default: go build it into a temporary directory)")
	fs.StringVar(&o.spans, "spans", "", "directory that traced runs write their spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	chosen := -1
	for i, w := range workloads {
		if *name == w.name {
			chosen = i
		}
	}
	switch {
	case chosen < 0 && *name != "all":
		fmt.Fprintf(stderr, "benchmark: unknown -workload %q\n", *name)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	case o.seconds <= 0 || o.scale <= 0 || o.scale > 1:
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -scale in (0, 1]")
		return 2
	}
	if o.sepeserve == "" && (o.trace || *name == "all" || *name == "serve-hash") {
		dir, err := os.MkdirTemp("", "sepebench")
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		defer os.RemoveAll(dir)
		o.sepeserve = filepath.Join(dir, "sepeserve")
		build := exec.Command("go", "build", "-o", o.sepeserve, "github.com/sepe-go/sepe/cmd/sepeserve")
		build.Stdout, build.Stderr = stderr, stderr
		if err := build.Run(); err != nil {
			fmt.Fprintln(stderr, "benchmark: build sepeserve:", err)
			return 2
		}
	}
	if *name == "all" {
		return runAll(&o, stdout, stderr)
	}
	w := workloads[chosen]
	ok, err := runWorkload(w.name, w.make, &o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

// runAll runs each workload in a process of its own, so that no
// workload's peak RSS or heap carries over into the next, and returns
// the highest exit code.
func runAll(o *options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
			"-trace", trace, "-sepeserve", o.sepeserve, "-spans", o.spans)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		var exit *exec.ExitError
		switch err := cmd.Run(); {
		case errors.As(err, &exit):
			code = max(code, exit.ExitCode())
		case err != nil:
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}

// runWorkload sets the workload up, warms it up, measures it and
// prints its detail and result lines. It reports whether every check
// passed.
func runWorkload(name string, newBench func(*options) (bench, error), o *options, stdout, stderr io.Writer) (bool, error) {
	b, err := newBench(o)
	if err != nil {
		return false, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d-pid%d", name, o.seed, os.Getpid()))
	}
	d := time.Duration(o.seconds * float64(time.Second))
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			b.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		err := b.setup(tr)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		// The warm-up, a fifth of the measured time, is shared out
		// after the set-ups, so that they spread over it and their
		// median is not taken from one moment of a machine whose speed
		// drifts.
		if _, err := b.measure(d/5/setupReps, nil); err != nil {
			b.teardown()
			return false, fmt.Errorf("warm-up: %w", err)
		}
	}
	values, samples, err := measureAll(b, tr, o)
	b.teardown()
	if err != nil {
		return false, err
	}
	values["setup_s"] = median(setups)

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return false, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	ungated := map[string]float64{}
	for k, v := range values {
		if _, ok := res.Metrics[k]; !ok {
			ungated[k] = v
		}
	}
	var notes []string
	res.Attempted, res.Failed, notes = b.checker().counts()
	res.Correct = res.Failed == 0 && res.Attempted > 0

	if o.trace && o.spans != "" {
		path := filepath.Join(o.spans, fmt.Sprintf("spans-%s-seed%d.json", name, o.seed))
		if err := tr.write(path); err != nil {
			return false, fmt.Errorf("write spans: %w", err)
		}
	}
	det := detail{
		Workload: name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Scale: o.scale,
		Env: envStamp(b), Samples: samples, Ungated: ungated, Failures: notes,
	}
	for _, v := range []any{det, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	for _, n := range notes {
		fmt.Fprintln(stderr, "benchmark: check failed:", n)
	}
	return res.Correct, nil
}

// measureAll measures the warmed-up workload: one untraced loop for
// the end-to-end metrics, or an untraced and a traced half plus the
// layer pass for the per-layer metrics. Every measured loop starts with
// a full collection, so none pays for the garbage of what ran before.
func measureAll(b bench, tr *tracer, o *options) (map[string]float64, map[string]uint64, error) {
	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		runtime.GC()
		st, err := b.measure(d, nil)
		if err != nil {
			return nil, nil, err
		}
		rss, err := peakRSSMB(b.rssPID())
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{
			"ops_per_s":    st.opsPerSec(),
			"batch_p50_us": st.latency(0.50) / 1e3,
			"batch_p99_us": st.tail(0.99) / 1e3,
			"rss_mb":       rss,
			"bcoll_ratio":  b.bcoll(),
		}, map[string]uint64{"batches": st.samples(), "windows": uint64(len(st.windows)), "setup_reps": setupReps, "heals": uint64(len(st.heals))}, nil
	}
	// Untraced and traced chunks alternate, so the overhead compares
	// stretches of the run that saw the same machine.
	var (
		st                stats
		plainOps, tracing []float64
		collected         gcCount
	)
	for i := 0; i < 2*traceChunks; i++ {
		traced := i%2 == 1
		var t *tracer
		if traced {
			t = tr
		}
		gc0 := gcNow()
		runtime.GC()
		s, err := b.measure(d/(2*traceChunks), t)
		if err != nil {
			return nil, nil, err
		}
		if !traced {
			plainOps = append(plainOps, s.opsPerSec())
			continue
		}
		// The collector counts include the forced collection, so they
		// are never 0 on table-hot, whose loop allocates nothing.
		gc := gcNow()
		collected.cycles += gc.cycles - gc0.cycles
		collected.pauseMs += gc.pauseMs - gc0.pauseMs
		tracing = append(tracing, s.opsPerSec())
		st.merge(s)
	}
	values, err := layerPass(b, &st, tr, o)
	if err != nil {
		return nil, nil, fmt.Errorf("layer pass: %w", err)
	}
	values["trace.overhead_pct"] = (median(plainOps)/median(tracing) - 1) * 100
	values["gc.cycles"] = float64(collected.cycles)
	values["gc.pause_ms"] = collected.pauseMs
	return values, map[string]uint64{"batches": st.samples(), "windows": uint64(len(st.windows)), "spans": uint64(len(tr.spans)), "heals": uint64(len(st.heals))}, nil
}

// envStamp records what the numbers were measured on.
func envStamp(b bench) map[string]any {
	backends := map[string]string{}
	for _, t := range b.ladderTables() {
		backends[t.name] = t.hash.Backend().String()
	}
	env := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"backends":   backends,
		"sepe_nohw":  os.Getenv("SEPE_NOHW"),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
