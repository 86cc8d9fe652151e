package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/sepe-go/sepe/internal/analysis"
)

var testNow = time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

// The repository must stay free of sepevet findings — every analyzer
// in All, no baseline: this is the same gate CI runs, kept in the
// standard test tier so a regression is visible from a plain
// `go test ./...`.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var out bytes.Buffer
	n, err := run(options{dir: "../..", patterns: []string{"./..."}, now: testNow}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("sepevet found %d failures:\n%s", n, out.String())
	}
}

func TestJSONOutputAndOnlyFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var out bytes.Buffer
	n, err := run(options{
		dir:      "../..",
		patterns: []string{"./internal/telemetry/..."},
		only:     "seedcheck",
		asJSON:   true,
		now:      testNow,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("unexpected findings: %s", out.String())
	}
	var list []analysis.Finding
	if err := json.Unmarshal(out.Bytes(), &list); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(list) != 0 {
		t.Fatalf("want empty finding array, got %v", list)
	}
}

// Every -only name must be an analyzer: a stale one next to a real
// one would otherwise quietly narrow the run.
func TestUnknownAnalyzerRejected(t *testing.T) {
	for _, only := range []string{"nonexistent", "seedcheck,nonexistent"} {
		_, err := run(options{dir: "../..", only: only, now: testNow}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), `"nonexistent"`) {
			t.Fatalf("-only %s: error %v, want one naming \"nonexistent\"", only, err)
		}
	}
}

// seedMutantModule materializes a module with one httpcheck finding
// (a dropped Encode error) — the cheap way to exercise the findings
// pipeline end to end without loading the whole repository.
func seedMutantModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module sepevet.test/m\n\ngo 1.24\n",
		"srv/srv.go": `package srv

import (
	"encoding/json"
	"net/http"
)

func handle(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode(map[string]int{"n": 1})
}
`,
	}
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// A seeded mutant fails the run, and the finding carries a
// root-relative path.
func TestSeededMutantFailsRun(t *testing.T) {
	dir := seedMutantModule(t)
	var out bytes.Buffer
	n, err := run(options{dir: dir, now: testNow}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("want 1 failure, got %d:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "srv/srv.go:9:") || !strings.Contains(out.String(), "Encode error dropped") {
		t.Fatalf("finding not rendered root-relative:\n%s", out.String())
	}
}

// A live baseline entry suppresses the finding; an expired one turns
// it into a hard error.
func TestBaselineSuppressionAndExpiry(t *testing.T) {
	dir := seedMutantModule(t)
	writeBaseline := func(expires string) {
		entries := []analysis.BaselineEntry{{
			Analyzer:      "httpcheck",
			File:          "srv/srv.go",
			Message:       "Encode error dropped",
			Justification: "fixture: suppressed for the pipeline test",
			Expires:       expires,
		}}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ".sepevet-baseline.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	writeBaseline(testNow.AddDate(0, 0, 30).Format("2006-01-02"))
	var out bytes.Buffer
	n, err := run(options{dir: dir, baselinePath: ".sepevet-baseline.json", now: testNow}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("live baseline should suppress the finding, got %d failures:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "[baselined]") {
		t.Fatalf("suppressed finding should still be reported:\n%s", out.String())
	}

	writeBaseline(testNow.AddDate(0, 0, -30).Format("2006-01-02"))
	out.Reset()
	n, err = run(options{dir: dir, baselinePath: ".sepevet-baseline.json", now: testNow}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("expired baseline entry must fail the run:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "expired") {
		t.Fatalf("want an expiry error in the output:\n%s", out.String())
	}
}

// -write-baseline writes a skeleton whose entries match the findings.
func TestWriteBaseline(t *testing.T) {
	dir := seedMutantModule(t)
	var out bytes.Buffer
	n, err := run(options{
		dir:           dir,
		baselinePath:  ".sepevet-baseline.json",
		writeBaseline: true,
		now:           testNow,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("-write-baseline must not fail, got %d", n)
	}
	data, err := os.ReadFile(filepath.Join(dir, ".sepevet-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []analysis.BaselineEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Analyzer != "httpcheck" || entries[0].File != "srv/srv.go" {
		t.Fatalf("unexpected skeleton: %+v", entries)
	}
	if entries[0].Expires == "" || !strings.Contains(entries[0].Justification, "TODO") {
		t.Fatalf("skeleton entries must expire and demand justification: %+v", entries[0])
	}
}

// -sarif emits a valid SARIF 2.1.0 log with the finding as a result
// and baselined findings marked suppressed.
func TestSARIFOutput(t *testing.T) {
	dir := seedMutantModule(t)
	sarifPath := filepath.Join(dir, "sepevet.sarif")
	var out bytes.Buffer
	n, err := run(options{dir: dir, sarifPath: sarifPath, now: testNow}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("want 1 failure, got %d", n)
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID       string `json:"ruleId"`
				Suppressions []struct {
					Kind string `json:"kind"`
				} `json:"suppressions"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "sepevet" {
		t.Fatalf("unexpected SARIF shape: %s", data)
	}
	if len(log.Runs[0].Tool.Driver.Rules) != len(All) {
		t.Fatalf("want %d rules, got %d", len(All), len(log.Runs[0].Tool.Driver.Rules))
	}
	res := log.Runs[0].Results
	if len(res) != 1 || res[0].RuleID != "httpcheck" || len(res[0].Suppressions) != 0 {
		t.Fatalf("unexpected results: %s", data)
	}
	if got := res[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; got != "srv/srv.go" {
		t.Fatalf("want root-relative URI srv/srv.go, got %q", got)
	}
}

// -diff restricts findings to files changed since the ref.
func TestDiffFilter(t *testing.T) {
	dir := seedMutantModule(t)
	git := func(args ...string) {
		t.Helper()
		cmd := append([]string{"git", "-C", dir}, args...)
		if out, err := runCmd(cmd...); err != nil {
			t.Fatalf("%v: %v\n%s", cmd, err, out)
		}
	}
	git("init", "-q")
	git("-c", "user.email=t@t", "-c", "user.name=t", "add", ".")
	git("-c", "user.email=t@t", "-c", "user.name=t", "commit", "-q", "-m", "seed")

	// Nothing changed since HEAD: the finding is filtered out.
	var out bytes.Buffer
	n, err := run(options{dir: dir, diffRef: "HEAD", now: testNow}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("unchanged tree must have no diff-mode failures, got %d:\n%s", n, out.String())
	}

	// Touch the file: the finding is back in scope.
	path := filepath.Join(dir, "srv", "srv.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(src, []byte("\n// touched\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	n, err = run(options{dir: dir, diffRef: "HEAD", now: testNow}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("changed file must fail diff mode, got %d:\n%s", n, out.String())
	}
}

func runCmd(args ...string) (string, error) {
	out, err := exec.Command(args[0], args[1:]...).CombinedOutput()
	return string(out), err
}

func TestUsageListsAllAnalyzers(t *testing.T) {
	if len(All) != 7 {
		t.Fatalf("sepevet must run 7 analyzers, got %d", len(All))
	}
	seen := map[string]bool{}
	for _, a := range All {
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer %s", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{"lockorder", "allocfree", "asmabi", "httpcheck"} {
		if !seen[want] {
			t.Fatalf("analyzer %s not registered", want)
		}
	}
}
