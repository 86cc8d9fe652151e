package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The RQ-corpus certification must stay clean (no certifier findings)
// and must keep proving the three bijections the paper's formats
// admit: Pext over SSN, CPF and IPv4 — the fixed-length formats with
// at most 64 variable bits. The regenerated report must also equal the
// checked-in BENCH_certify.json byte for byte apart from its date, which
// pins every certificate — ranks, dead bits, funnels, counterexample
// keys and hashes — against changes to the synthesizer or certifier.
func TestRunCertify(t *testing.T) {
	var out strings.Builder
	if err := runCertify(&out); err != nil {
		t.Fatal(err)
	}
	var rep certifyReport
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("-certify output is not JSON: %v", err)
	}
	if rep.Summary.Certificates != 32 {
		t.Errorf("certificates = %d, want 32 (8 formats x 4 families)", rep.Summary.Certificates)
	}
	if rep.Summary.Findings != 0 {
		t.Errorf("findings = %d, want 0", rep.Summary.Findings)
	}
	bijective := map[string]bool{}
	for _, f := range rep.Formats {
		for _, c := range f.Certificates {
			if c.Bijective {
				bijective[f.Key+"/"+c.Family] = true
			}
			if !c.Bijective && c.Linear && c.Counterexample == nil {
				t.Errorf("%s/%s: non-bijective linear plan without a counterexample", f.Key, c.Family)
			}
		}
	}
	checkedIn, err := os.ReadFile("../../BENCH_certify.json")
	if err != nil {
		t.Fatal(err)
	}
	date := regexp.MustCompile(`(?m)^  "date": "[^"]*",$`)
	if got, want := date.ReplaceAllString(out.String(), ""), date.ReplaceAllString(string(checkedIn), ""); got != want {
		t.Errorf("regenerated report differs from BENCH_certify.json; rerun %s", rep.Command)
	}
	for _, want := range []string{"SSN/Pext", "CPF/Pext", "IPv4/Pext"} {
		if !bijective[want] {
			t.Errorf("%s must certify bijective", want)
		}
	}
	if len(bijective) != 3 {
		t.Errorf("bijective set = %v, want exactly the three ≤64-bit fixed Pext formats", bijective)
	}
}
