package sepe_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docBenchRecord  = regexp.MustCompile(`BENCH_\w+\.json`)
	docMakeTarget   = regexp.MustCompile("`make\\s+([A-Za-z0-9_-]+)")
	docSepebenchArg = regexp.MustCompile(`sepebench\s+-([a-z][a-z0-9-]*)`)
	makefileRule    = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):([^=]|$)`)
	sepebenchFlag   = regexp.MustCompile(`flag\.\w+\(\s*"([^"]+)"`)
	docSepevetOnly  = regexp.MustCompile(`sepevet\b[^\n]*?-only\s+([A-Za-z0-9_,]+)`)
)

// TestDocsNameExistingArtifacts checks that the reader-facing docs
// point only at things a reader can run or open: every BENCH_*.json
// record they mention is checked in, every `make X` is a Makefile
// rule, every `sepebench -flag` is a flag cmd/sepebench defines, and
// every analyzer named after `sepevet … -only` has its package under
// internal/analysis.
func TestDocsNameExistingArtifacts(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileRule.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	sources, err := filepath.Glob("cmd/sepebench/*.go")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, path := range sources {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range sepebenchFlag.FindAllStringSubmatch(string(src), -1) {
			flags[m[1]] = true
		}
	}
	if len(targets) == 0 || len(flags) == 0 {
		t.Fatalf("found %d make targets and %d sepebench flags; the patterns no longer match", len(targets), len(flags))
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docBenchRecord.FindAllString(string(text), -1) {
			if _, err := os.Stat(name); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, name)
			}
		}
		for _, m := range docMakeTarget.FindAllStringSubmatch(string(text), -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
		for _, m := range docSepebenchArg.FindAllStringSubmatch(string(text), -1) {
			if !flags[m[1]] {
				t.Errorf("%s names `sepebench -%s`, which cmd/sepebench does not define", doc, m[1])
			}
		}
		for _, m := range docSepevetOnly.FindAllStringSubmatch(string(text), -1) {
			for _, name := range strings.Split(m[1], ",") {
				if fi, err := os.Stat(filepath.Join("internal", "analysis", name)); name == "" || err != nil || !fi.IsDir() {
					t.Errorf("%s names `sepevet -only %s`, which internal/analysis does not hold", doc, name)
				}
			}
		}
	}
}
