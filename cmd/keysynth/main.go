// Keysynth generates specialized hash functions from a key-format
// regular expression — the paper's Figure 5 command:
//
//	keysynth '[0-9]{3}-[0-9]{2}-[0-9]{4}'
//	keysynth -family pext -lang cpp '(([0-9]{3})\.){3}[0-9]{3}'
//	keysynth "$(keybuilder < keys.txt)"
//
// By default it emits Go source for all families the target supports,
// plus the shared support helpers. The C++ output matches the paper's
// Figure 5c functor shape. With -lint it certifies the plans instead
// of emitting code: one JSON certificate per family, non-zero exit on
// any certifier finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/sepe-go/sepe/internal/codegen"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/infer"
	"github.com/sepe-go/sepe/internal/pattern"
	"github.com/sepe-go/sepe/internal/rex"
	"github.com/sepe-go/sepe/internal/rng"
	"github.com/sepe-go/sepe/internal/telemetry"
)

func main() {
	cfg := config{}
	flag.StringVar(&cfg.family, "family", "all", "family to synthesize: naive, offxor, aes, pext or all")
	flag.StringVar(&cfg.lang, "lang", "go", "output language: go or cpp")
	flag.StringVar(&cfg.pkg, "package", "hash", "package name for Go output")
	flag.StringVar(&cfg.name, "name", "", "function/struct name (default Hash<Family>)")
	flag.StringVar(&cfg.target, "target", "x86-64", "target architecture: x86-64 or aarch64")
	flag.BoolVar(&cfg.noSupport, "no-support", false, "omit the Go support helpers")
	flag.BoolVar(&cfg.allowShort, "allow-short", false, "synthesize even for formats shorter than 8 bytes")
	flag.IntVar(&cfg.samples, "samples", 0,
		"print N sample keys instead of code (drawn from the quad-widened format, so a [0-9] slot may show ':'..'?')")
	flag.BoolVar(&cfg.stats, "stats", false,
		"print per-phase synthesis timings and a plan summary to stderr")
	flag.BoolVar(&cfg.lint, "lint", false,
		"certify the plans instead of emitting code: print one JSON certificate per family (bijectivity proof or counterexample, dead entropy, funnels) and exit non-zero on any finding")
	flag.StringVar(&cfg.trace, "trace", "",
		"write a Chrome trace-event JSON of the synthesis pipeline to this file (open in chrome://tracing or Perfetto)")
	flag.BoolVar(&cfg.redact, "redact", false,
		"mask sensitive attribute values (certifier counterexample keys, sampled keys) in the -trace export, keeping only each value's first and last byte")
	fromKeys := flag.Bool("from-keys", false,
		"treat the argument as a file of example keys (or '-' for stdin) and infer the format, fusing keybuilder|keysynth into one command")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: keysynth [flags] <regex | -from-keys file>")
		flag.Usage()
		os.Exit(2)
	}
	cfg.expr = flag.Arg(0)
	if *fromKeys {
		expr, err := inferExpr(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "keysynth:", err)
			os.Exit(1)
		}
		cfg.expr = expr
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "keysynth:", err)
		os.Exit(1)
	}
}

// inferExpr reads example keys from a file (or stdin for "-") and
// returns the inferred regular expression.
func inferExpr(path string) (string, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		defer f.Close()
		r = f
	}
	pat, err := infer.InferLines(r)
	if err != nil {
		return "", err
	}
	return pat.Regex(), nil
}

type config struct {
	expr       string
	family     string
	lang       string
	pkg        string
	name       string
	target     string
	noSupport  bool
	allowShort bool
	samples    int
	stats      bool
	lint       bool
	trace      string
	redact     bool
	// statsOut receives the -stats report; main leaves it nil for
	// os.Stderr, tests substitute a buffer.
	statsOut io.Writer
}

func run(cfg config, out io.Writer) error {
	pat, err := rex.ParseAndLower(cfg.expr)
	if err != nil {
		return err
	}
	if cfg.samples > 0 {
		r := rng.New(0x5EED)
		for _, k := range pat.SampleN(r, cfg.samples) {
			fmt.Fprintln(out, k)
		}
		return nil
	}
	tgt, err := parseTarget(cfg.target)
	if err != nil {
		return err
	}
	fams, err := parseFamilies(cfg.family, tgt)
	if err != nil {
		return err
	}
	opts := core.Options{Target: tgt, AllowShort: cfg.allowShort}
	if cfg.lint {
		return lint(pat, fams, opts, out)
	}
	// -stats and -trace both read one flight recorder: its spans feed
	// the timing report and the Chrome trace export. Either (or both)
	// forces the full pipeline so every phase is spanned.
	full := cfg.stats || cfg.trace != ""
	if full {
		opts.Recorder = telemetry.NewRecorder(0)
		if cfg.redact {
			// The same policy surface as Registry.SetRedactor: sensitive
			// attributes (certifier counterexamples among them) pass
			// through the mask at export time; raw values never reach
			// the trace file.
			opts.Recorder.SetRedactor(maskValue)
		}
	}
	var plans []*core.Plan
	for i, fam := range fams {
		var plan *core.Plan
		if full {
			// Run the full pipeline (plan, verify, compile) so the
			// report and trace cover every phase, not just planning.
			fn, err := core.Synthesize(pat, fam, opts)
			if err != nil {
				return err
			}
			plan = fn.Plan()
		} else {
			var err error
			plan, err = core.BuildPlan(pat, fam, opts)
			if err != nil {
				return err
			}
		}
		plans = append(plans, plan)
		name := cfg.name
		if name == "" || len(fams) > 1 {
			name = defaultName(cfg, fam)
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		switch cfg.lang {
		case "go":
			fmt.Fprint(out, codegen.Go(plan, codegen.GoOptions{Package: cfg.pkg, Name: name}))
		case "cpp", "c++":
			fmt.Fprint(out, codegen.CPP(plan, codegen.CPPOptions{Struct: name}))
		default:
			return fmt.Errorf("unknown language %q", cfg.lang)
		}
	}
	if cfg.lang == "go" && !cfg.noSupport {
		fmt.Fprintln(out)
		fmt.Fprint(out, codegen.Support(cfg.pkg))
	}
	if cfg.stats {
		printStats(cfg.statsWriter(), opts.Recorder, plans)
	}
	if cfg.trace != "" {
		f, err := os.Create(cfg.trace)
		if err != nil {
			return err
		}
		if err := opts.Recorder.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// lint certifies one plan per family and prints the certificates as a
// JSON array. Any certificate finding (a violated plan invariant, as
// opposed to mere non-bijectivity) makes the run fail, which is what
// turns keysynth into a CI lint step for checked-in formats.
func lint(pat *pattern.Pattern, fams []core.Family, opts core.Options, out io.Writer) error {
	var certs []*core.Certificate
	findings := 0
	for _, fam := range fams {
		plan, err := core.BuildPlan(pat, fam, opts)
		if err != nil {
			return err
		}
		c := core.Certify(plan)
		findings += len(c.Findings)
		certs = append(certs, c)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(certs); err != nil {
		return err
	}
	if findings > 0 {
		return fmt.Errorf("certification failed: %d finding(s)", findings)
	}
	return nil
}

// maskValue is the -redact policy: keep the value's length and its
// first and last byte (enough to recognize which format a
// counterexample belongs to), mask everything else.
func maskValue(s string) string {
	if len(s) <= 2 {
		return "***"
	}
	return s[:1] + strings.Repeat("*", len(s)-2) + s[len(s)-1:]
}

func (cfg config) statsWriter() io.Writer {
	if cfg.statsOut != nil {
		return cfg.statsOut
	}
	return os.Stderr
}

// printStats renders the -stats report: one plan-summary line per
// family, the per-span timing table, and per-phase totals.
func printStats(w io.Writer, rec *telemetry.Recorder, plans []*core.Plan) {
	fmt.Fprintln(w, "# plans")
	for _, p := range plans {
		switch {
		case p.Fallback:
			fmt.Fprintf(w, "%-8s fallback to standard hash (format shorter than a word)\n", p.Family)
		case p.Fixed:
			fmt.Fprintf(w, "%-8s fixed len=%d loads=%d variable_bits=%d bijective=%v backend=%v\n",
				p.Family, p.KeyLen, len(p.Loads), p.HashBits, p.Bijective(), p.Backend)
		default:
			fmt.Fprintf(w, "%-8s variable len=[%d,%d] skip_loads=%d variable_bits=%d backend=%v\n",
				p.Family, p.Pattern.MinLen, p.Pattern.MaxLen, p.SkipLoads, p.HashBits, p.Backend)
		}
	}
	// Events come back in Seq order, the order the spans ended; spans
	// of the same name stay listed separately (one per family).
	var spans []telemetry.Event
	width := 0
	totals := map[string]time.Duration{}
	for _, ev := range rec.Events() {
		if ev.Kind != telemetry.EventSpan {
			continue
		}
		spans = append(spans, ev)
		width = max(width, len(ev.Name))
		totals[ev.Name] += time.Duration(ev.Dur)
	}
	fmt.Fprintln(w, "# phases")
	for _, ev := range spans {
		fmt.Fprintf(w, "%-*s %12s", width, ev.Name, time.Duration(ev.Dur).Round(time.Microsecond))
		for _, a := range ev.AttrList() {
			fmt.Fprint(w, "  "+a.String())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "# totals")
	for _, name := range slices.Sorted(maps.Keys(totals)) {
		fmt.Fprintf(w, "%-14s %12s\n", name, totals[name].Round(time.Microsecond))
	}
}

func defaultName(cfg config, fam core.Family) string {
	base := cfg.name
	if base == "" {
		if cfg.lang == "go" {
			return "Hash" + fam.String()
		}
		return "synthesized" + fam.String() + "Hash"
	}
	return base + fam.String()
}

func parseTarget(s string) (core.Target, error) {
	switch strings.ToLower(s) {
	case "x86-64", "x86", "amd64":
		return core.TargetX86, nil
	case "aarch64", "arm64":
		return core.TargetAarch64, nil
	default:
		return core.Target{}, fmt.Errorf("unknown target %q", s)
	}
}

func parseFamilies(s string, tgt core.Target) ([]core.Family, error) {
	if strings.EqualFold(s, "all") {
		var fams []core.Family
		for _, f := range core.Families {
			if tgt.Supports(f) {
				fams = append(fams, f)
			}
		}
		return fams, nil
	}
	for _, f := range core.Families {
		if strings.EqualFold(s, f.String()) {
			if !tgt.Supports(f) {
				return nil, fmt.Errorf("family %v is unavailable on %s", f, tgt.Name)
			}
			return []core.Family{f}, nil
		}
	}
	return nil, fmt.Errorf("unknown family %q", s)
}
