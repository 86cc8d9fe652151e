package main

import (
	"math"
	"strconv"
	"testing"
)

// TestHex64Format pins the wire format of hash values in response
// bodies: lowercase hex without zero padding. Clients parse it with
// strconv.ParseUint(s, 16, 64), so every case must round-trip.
func TestHex64Format(t *testing.T) {
	cases := []struct {
		name string
		v    uint64
		want string
	}{
		{"zero", 0, "0"},
		{"one", 1, "1"},
		{"leading zero nibble", 0x0fedcba987654321, "fedcba987654321"},
		{"top nibble set", 0x8000000000000000, "8000000000000000"},
		{"max", math.MaxUint64, "ffffffffffffffff"},
	}
	for _, c := range cases {
		got := hex64(c.v)
		if got != c.want {
			t.Errorf("%s: hex64(%#x) = %q, want %q", c.name, c.v, got, c.want)
		}
		back, err := strconv.ParseUint(got, 16, 64)
		if err != nil || back != c.v {
			t.Errorf("%s: ParseUint(%q) = %#x, %v; want %#x", c.name, got, back, err, c.v)
		}
	}
}
