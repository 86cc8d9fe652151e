// Command sepevet is the project's static-analysis multichecker: it
// runs the seven sepe-specific analyzers — atomicfield (atomic/plain
// access consistency), unsafeaudit (unsafe confined to kernel
// packages), seedcheck (raw seed material never reaches fmt, log, or
// telemetry sinks), lockorder (whole-program lock-acquisition order
// and callbacks under ranked locks), allocfree (//sepe:noalloc checked
// against the compiler's escape analysis), asmabi (assembly kernels
// against their Go stubs), httpcheck (handler hygiene) — over the
// requested packages and exits non-zero if any finding is neither
// fixed nor suppressed by the committed baseline. CI runs it over
// ./... next to go vet; the analyzers encode the invariants vet
// cannot know about.
//
// Usage:
//
//	sepevet [-json] [-only name,name] [-sarif file] [-baseline file]
//	        [-write-baseline] [-diff ref] [packages]
//
// With no package arguments it analyzes ./... in the current
// directory. -json emits the findings as a JSON array instead of
// vet-style file:line:col lines; -sarif additionally writes a SARIF
// 2.1.0 log ("-" for stdout) for code-scanning upload. -baseline
// names the suppression file (default .sepevet-baseline.json; see
// internal/analysis for the entry format — every entry carries a
// justification and an expiry date). -write-baseline writes a
// skeleton baseline covering the current findings and exits.
// -diff ref restricts the findings to files changed since the git
// ref, for fast pre-push runs over large trees.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"github.com/sepe-go/sepe/internal/analysis"
	"github.com/sepe-go/sepe/internal/analysis/allocfree"
	"github.com/sepe-go/sepe/internal/analysis/asmabi"
	"github.com/sepe-go/sepe/internal/analysis/atomicfield"
	"github.com/sepe-go/sepe/internal/analysis/httpcheck"
	"github.com/sepe-go/sepe/internal/analysis/lockorder"
	"github.com/sepe-go/sepe/internal/analysis/seedcheck"
	"github.com/sepe-go/sepe/internal/analysis/unsafeaudit"
)

// All lists every analyzer sepevet runs by default.
var All = []*analysis.Analyzer{
	atomicfield.Analyzer,
	unsafeaudit.Analyzer,
	seedcheck.Analyzer,
	lockorder.Analyzer,
	allocfree.Analyzer,
	asmabi.Analyzer,
	httpcheck.Analyzer,
}

// options bundles one sepevet invocation.
type options struct {
	dir           string    // working directory for the load
	patterns      []string  // package patterns (default ./...)
	only          string    // comma-separated analyzer subset
	asJSON        bool      // findings as a JSON array
	sarifPath     string    // write a SARIF log here ("-" = out)
	baselinePath  string    // suppression file, relative to dir
	writeBaseline bool      // write a skeleton baseline and exit
	diffRef       string    // restrict findings to files changed since this git ref
	now           time.Time // clock for baseline expiry
}

// run executes the multichecker and writes findings to out, returning
// the number of failures: unsuppressed findings plus baseline errors.
func run(opts options, out io.Writer) (int, error) {
	analyzers, err := selectAnalyzers(opts.only)
	if err != nil {
		return 0, err
	}
	root, err := filepath.Abs(opts.dir)
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, opts.dir, opts.patterns...)
	if err != nil {
		return 0, err
	}
	findings := analysis.Render(fset, analysis.Run(fset, pkgs, analyzers), root)

	if opts.diffRef != "" {
		findings, err = filterChanged(findings, root, opts.diffRef)
		if err != nil {
			return 0, err
		}
	}

	baselinePath := opts.baselinePath
	if baselinePath == "" {
		baselinePath = ".sepevet-baseline.json"
	}
	if !filepath.IsAbs(baselinePath) {
		baselinePath = filepath.Join(root, baselinePath)
	}
	if opts.writeBaseline {
		f, err := os.Create(baselinePath)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		if err := analysis.WriteBaseline(f, findings, opts.now); err != nil {
			return 0, err
		}
		fmt.Fprintf(out, "sepevet: wrote %d baseline entries to %s — replace every TODO justification before committing\n",
			len(findings), baselinePath)
		return 0, nil
	}
	entries, err := analysis.LoadBaseline(baselinePath)
	if err != nil {
		return 0, err
	}
	errs, warns := analysis.ApplyBaseline(findings, entries, opts.now)

	failures := len(errs)
	for _, f := range findings {
		if !f.Suppressed {
			failures++
		}
	}

	if opts.sarifPath != "" {
		w := out
		if opts.sarifPath != "-" {
			f, err := os.Create(opts.sarifPath)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			w = f
		}
		if err := analysis.WriteSARIF(w, findings, analyzers); err != nil {
			return 0, err
		}
	}
	if opts.asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			return 0, err
		}
	} else if opts.sarifPath != "-" {
		for _, f := range findings {
			if f.Suppressed {
				fmt.Fprintf(out, "%s [baselined]\n", f)
			} else {
				fmt.Fprintf(out, "%s\n", f)
			}
		}
	}
	for _, w := range warns {
		fmt.Fprintf(out, "sepevet: warning: %s\n", w)
	}
	for _, e := range errs {
		fmt.Fprintf(out, "sepevet: error: %s\n", e)
	}
	return failures, nil
}

// selectAnalyzers resolves -only against the full set.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return All, nil
	}
	known := map[string]bool{}
	for _, a := range All {
		known[a.Name] = true
	}
	wanted := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return nil, fmt.Errorf("sepevet: -only names unknown analyzer %q", name)
		}
		wanted[name] = true
	}
	var analyzers []*analysis.Analyzer
	for _, a := range All {
		if wanted[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	return analyzers, nil
}

// filterChanged keeps the findings whose files changed since ref
// (plus any finding without a position, which cannot be attributed).
func filterChanged(findings []analysis.Finding, root, ref string) ([]analysis.Finding, error) {
	cmd := exec.Command("git", "diff", "--name-only", ref, "--")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("sepevet: git diff --name-only %s: %w", ref, err)
	}
	changed := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		if line != "" {
			changed[filepath.ToSlash(line)] = true
		}
	}
	kept := findings[:0]
	for _, f := range findings {
		if f.File == "" || changed[f.File] {
			kept = append(kept, f)
		}
	}
	return kept, nil
}

func main() {
	var opts options
	flag.BoolVar(&opts.asJSON, "json", false, "emit findings as JSON")
	flag.StringVar(&opts.only, "only", "", "comma-separated analyzer subset to run")
	flag.StringVar(&opts.sarifPath, "sarif", "", "write a SARIF 2.1.0 log to this file (\"-\" for stdout)")
	flag.StringVar(&opts.baselinePath, "baseline", ".sepevet-baseline.json", "suppression baseline file")
	flag.BoolVar(&opts.writeBaseline, "write-baseline", false, "write a skeleton baseline for the current findings and exit")
	flag.StringVar(&opts.diffRef, "diff", "", "restrict findings to files changed since this git ref")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: sepevet [-json] [-only name,name] [-sarif file] [-baseline file] [-write-baseline] [-diff ref] [packages]\n\nanalyzers:\n")
		for _, a := range All {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	opts.dir = "."
	opts.patterns = flag.Args()
	opts.now = time.Now()
	n, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}
