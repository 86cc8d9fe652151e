// Sepetop is top(1) for specialized hash functions: a live terminal
// dashboard over the sepe metrics surface, rendering per-format call
// rates, SLO latency percentiles, container probe depths and B-Coll,
// drift mismatch rates, and the aggregated health model.
//
//	sepetop                          # built-in demo: the paper's 8 formats under load
//	sepetop -offformat 0.2           # demo with drift injected into every key stream
//	sepetop -url http://host:8080/metrics   # watch a live process
//	sepetop -once                    # one frame to stdout, no TTY control codes
//
// With -url it polls the JSON surface of sepe.MetricsHandler (the
// handler content-negotiates on Accept: application/json). Without it,
// sepetop synthesizes a Pext hash for each of the paper's eight key
// formats (RQ1's corpus), drives instrumented observed maps with
// generated keys between frames, and renders its own registry — a
// self-contained tour of the observability plane.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/dash"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/telemetry"
)

func main() {
	cfg := config{}
	flag.StringVar(&cfg.url, "url", "",
		"poll this metrics endpoint (the JSON surface of sepe.MetricsHandler) instead of running the built-in demo")
	flag.DurationVar(&cfg.interval, "interval", 2*time.Second, "refresh interval")
	flag.BoolVar(&cfg.once, "once", false, "render exactly one frame to stdout and exit (no TTY control codes)")
	flag.IntVar(&cfg.width, "width", 100, "frame width in columns")
	flag.IntVar(&cfg.ops, "ops", 4096, "demo mode: map operations per format between frames")
	flag.Float64Var(&cfg.offformat, "offformat", 0,
		"demo mode: fraction of keys drawn off-format (0..1), exercising the drift monitors")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sepetop:", err)
		os.Exit(1)
	}
}

type config struct {
	url       string
	interval  time.Duration
	once      bool
	width     int
	ops       int
	offformat float64
}

func run(cfg config, out io.Writer) error {
	snap, err := source(cfg)
	if err != nil {
		return err
	}
	r := dash.New(cfg.width)
	for {
		s, err := snap()
		if err != nil {
			return err
		}
		if !cfg.once {
			// Home the cursor and clear, rather than scrolling frames.
			io.WriteString(out, "\x1b[H\x1b[2J")
		}
		if _, err := io.WriteString(out, r.Frame(s, time.Now())); err != nil {
			return err
		}
		if cfg.once {
			return nil
		}
		time.Sleep(cfg.interval)
	}
}

// source returns the snapshot producer: an HTTP poller with -url, the
// in-process demo otherwise.
func source(cfg config) (func() (telemetry.RegistrySnapshot, error), error) {
	if cfg.url != "" {
		return func() (telemetry.RegistrySnapshot, error) { return fetch(cfg.url) }, nil
	}
	d, err := newDemo(cfg.offformat)
	if err != nil {
		return nil, err
	}
	return func() (telemetry.RegistrySnapshot, error) {
		d.drive(cfg.ops)
		return d.reg.Snapshot(), nil
	}, nil
}

func fetch(url string) (telemetry.RegistrySnapshot, error) {
	var s telemetry.RegistrySnapshot
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return s, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// demo drives the paper's eight key formats through instrumented
// observed maps, all feeding one registry.
type demo struct {
	reg     *sepe.MetricsRegistry
	formats []*demoFormat
}

type demoFormat struct {
	name  string
	m     *sepe.Map[int]
	gen   *keys.Generator
	drift *sepe.DriftMonitor
	am    *sepe.AdaptiveMetrics
	every int // inject one off-format key every N (0 = never)
	i     int
}

func newDemo(offformat float64) (*demo, error) {
	reg := sepe.NewMetricsRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	every := 0
	if offformat > 0 {
		every = int(1 / offformat)
		if every < 1 {
			every = 1
		}
	}
	d := &demo{reg: reg}
	for _, t := range keys.All {
		format, err := sepe.ParseRegex(t.Regex())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.Name(), err)
		}
		// Pext is the paper's headline family; formats it cannot
		// cover fall back to the general-purpose hash, exactly as a
		// production deployment would.
		fn := sepe.STLHash
		if h, err := sepe.Synthesize(format, sepe.Pext); err == nil {
			fn = h.Func()
		}
		hm := reg.NewHash(t.Name())
		// Instrument hands the monitor one key per 256 calls, which
		// it checks; let a demo-sized window of them arm the alarm.
		drift := reg.NewDrift(t.Name(), format.Matches, sepe.DriftConfig{MinSamples: 8})
		am := reg.NewAdaptive(t.Name())
		am.SetState(0, "Specialized", sepe.HealthReady)
		df := &demoFormat{
			name:  t.Name(),
			m:     sepe.NewMap[int](sepe.Instrument(fn, hm, drift), sepe.Observed(reg, t.Name())),
			gen:   keys.NewGenerator(t, keys.Uniform, 0x5EED),
			drift: drift,
			am:    am,
			every: every,
		}
		d.formats = append(d.formats, df)
	}
	return d, nil
}

// drive runs n operations per format and mirrors each drift verdict
// into the format's adaptive health row.
func (d *demo) drive(n int) {
	for _, f := range d.formats {
		for j := 0; j < n; j++ {
			k := f.gen.Next()
			if f.every > 0 && f.i%f.every == 0 {
				k = fmt.Sprintf("off-format-%d", f.i)
			}
			f.m.Put(k, f.i)
			f.m.Get(k)
			if f.i%64 == 0 {
				f.m.Delete(k)
			}
			f.i++
		}
		if f.drift.Degraded() {
			f.am.SetState(1, "Degraded", sepe.HealthNotReady)
		} else {
			f.am.SetState(0, "Specialized", sepe.HealthReady)
		}
	}
}
