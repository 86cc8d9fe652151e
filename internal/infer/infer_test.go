package infer

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestInferEmpty(t *testing.T) {
	if _, err := Infer(nil); !errors.Is(err, ErrNoKeys) {
		t.Errorf("Infer(nil) err = %v, want ErrNoKeys", err)
	}
}

func TestInferSingleKey(t *testing.T) {
	p, err := Infer([]string{"abc"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.FixedLen() || p.MaxLen != 3 {
		t.Errorf("len bounds = [%d,%d], want [3,3]", p.MinLen, p.MaxLen)
	}
	for i, b := range p.Bytes {
		if !b.Const() || b.Value != "abc"[i] {
			t.Errorf("byte %d = %+v, want constant %q", i, b, "abc"[i])
		}
	}
}

func TestInferSSN(t *testing.T) {
	// Example 3.6: two well-chosen examples suffice for digit formats.
	p, err := Infer([]string{"000-00-0000", "555-55-5555"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.FixedLen() || p.MaxLen != 11 {
		t.Fatalf("len = [%d,%d], want [11,11]", p.MinLen, p.MaxLen)
	}
	for i, b := range p.Bytes {
		if i == 3 || i == 6 {
			if !b.Const() || b.Value != '-' {
				t.Errorf("byte %d: want constant '-', got %+v", i, b)
			}
			continue
		}
		if b.Known != 0xF0 || b.Value != 0x30 {
			t.Errorf("byte %d: want digit mask (0xF0, 0x30), got (%#02x, %#02x)",
				i, b.Known, b.Value)
		}
	}
	if got := p.Regex(); got != `[0-9]{3}-[0-9]{2}-[0-9]{4}` {
		t.Errorf("Regex = %q", got)
	}
}

func TestInferMixedLengths(t *testing.T) {
	p, err := Infer([]string{"JFK", "GRU", "RJTT"})
	if err != nil {
		t.Fatal(err)
	}
	if p.MinLen != 3 || p.MaxLen != 4 {
		t.Fatalf("len = [%d,%d], want [3,4]", p.MinLen, p.MaxLen)
	}
	// Fourth byte appears only in RJTT, so the join makes it free.
	if !p.Bytes[3].Free() {
		t.Errorf("byte 3 = %+v, want free", p.Bytes[3])
	}
	if !p.Matches("JFK") || !p.Matches("RJTT") {
		t.Error("pattern must match its own examples")
	}
	// The join is idempotent, so repeated keys change nothing: callers
	// need not deduplicate a sample before inferring from it.
	dup, err := Infer([]string{"JFK", "JFK", "GRU", "RJTT", "GRU", "RJTT", "JFK"})
	if err != nil {
		t.Fatal(err)
	}
	if dup.MinLen != p.MinLen || dup.MaxLen != p.MaxLen || dup.Regex() != p.Regex() {
		t.Errorf("duplicated keys inferred [%d,%d] %q, want [%d,%d] %q",
			dup.MinLen, dup.MaxLen, dup.Regex(), p.MinLen, p.MaxLen, p.Regex())
	}
	for i := range p.Bytes {
		if dup.Bytes[i] != p.Bytes[i] {
			t.Errorf("byte %d with duplicates = %+v, want %+v", i, dup.Bytes[i], p.Bytes[i])
		}
	}
}

// TestInferSound is the central soundness property: the inferred
// pattern matches every example it was built from.
func TestInferSound(t *testing.T) {
	f := func(keys []string) bool {
		// Drop empty keys: a zero-length example forces MinLen 0 and
		// any key matches trivially, which is fine but uninteresting.
		var set []string
		for _, k := range keys {
			if k != "" && len(k) <= 64 {
				set = append(set, k)
			}
		}
		if len(set) == 0 {
			return true
		}
		p, err := Infer(set)
		if err != nil {
			return false
		}
		for _, k := range set {
			if !p.Matches(k) {
				return false
			}
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInferNotTooConservative: for same-length examples differing in a
// single byte, every other byte stays constant.
func TestInferNotTooConservative(t *testing.T) {
	p, err := Infer([]string{"abcdef", "abXdef"})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range p.Bytes {
		if i == 2 {
			continue
		}
		if !b.Const() {
			t.Errorf("byte %d must remain constant, got %+v", i, b)
		}
	}
	if p.Bytes[2].Const() {
		t.Error("byte 2 must not be constant")
	}
}

func TestInferKeyTooLong(t *testing.T) {
	_, err := Infer([]string{strings.Repeat("x", MaxKeyLen+1)})
	if err == nil {
		t.Error("oversized key must be rejected")
	}
}

func TestInferLines(t *testing.T) {
	in := strings.NewReader("000-00-0000\n\n555-55-5555\n")
	p, err := InferLines(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxLen != 11 {
		t.Errorf("MaxLen = %d, want 11", p.MaxLen)
	}
}

func TestInferLinesEmptyInput(t *testing.T) {
	if _, err := InferLines(strings.NewReader("\n\n")); !errors.Is(err, ErrNoKeys) {
		t.Errorf("err = %v, want ErrNoKeys", err)
	}
}

func TestInferIPv4Fixed(t *testing.T) {
	// The paper's fixed-length IPv4 format ddd.ddd.ddd.ddd.
	p, err := Infer([]string{"000.000.000.000", "555.555.555.555", "192.168.001.042"})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Regex(); got != `[0-9]{3}\.[0-9]{3}\.[0-9]{3}\.[0-9]{3}` {
		t.Errorf("Regex = %q", got)
	}
}
