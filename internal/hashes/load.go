// Package hashes implements the general-purpose baseline hash
// functions the paper compares SEPE against: the libstdc++ murmur
// variant ("STL", Figure 1 of the paper), the libstdc++ FNV-1a
// ("FNV"), Google's CityHash64 ("City"), and an Abseil-style
// low-level hash ("Abseil"). A Polymur-style length-dispatching
// function illustrates the manual specialization of Figure 2.
//
// All functions take string keys and produce 64-bit hashes, matching
// the std::hash<std::string> interface the paper's driver exercises.
package hashes

// Func is the common shape of every hash function in this repository:
// a map from string keys to 64-bit hash codes. It is an alias, not a
// defined type, so values cross freely between internal signatures and
// the public API's HashFunc (including signatures built from either,
// such as the Func method of the adaptive Function interface).
type Func = func(key string) uint64

// LoadU64 reads 8 bytes of s at offset i, little-endian, mirroring the
// unaligned loads of the paper's generated code. The caller guarantees
// i+8 <= len(s). The byte-or-shift chain below is the form the
// compiler's load-combining pass recognizes: on little-endian targets
// with unaligned loads (amd64, arm64) it compiles to a single 8-byte
// MOVQ-class load, so no assembly or unsafe is needed for a
// single-instruction word load.
func LoadU64(s string, i int) uint64 {
	b := s[i : i+8] // one bounds (and sign) check for all eight bytes
	return uint64(b[0]) |
		uint64(b[1])<<8 |
		uint64(b[2])<<16 |
		uint64(b[3])<<24 |
		uint64(b[4])<<32 |
		uint64(b[5])<<40 |
		uint64(b[6])<<48 |
		uint64(b[7])<<56
}

// LoadU32 reads 4 bytes little-endian (one 4-byte load after
// combining).
func LoadU32(s string, i int) uint64 {
	b := s[i : i+4]
	return uint64(b[0]) |
		uint64(b[1])<<8 |
		uint64(b[2])<<16 |
		uint64(b[3])<<24
}

// LoadU16 reads 2 bytes little-endian (one 2-byte load after
// combining).
func LoadU16(s string, i int) uint64 {
	b := s[i : i+2]
	return uint64(b[0]) | uint64(b[1])<<8
}

// LoadTail reads the n ∈ [1,7] bytes of s starting at i into the low
// bytes of a word, little-endian — the paper's load_bytes helper.
// Instead of the byte-at-a-time loop, the tail is composed from at
// most two overlapping wide loads: for n ≥ 4, a 4-byte load at the
// start and a 4-byte load ending at the last byte (the overlapping
// middle bytes coincide bit-for-bit, so or-ing them is idempotent);
// for n ∈ [2,3], a 2-byte load plus the last byte re-or'ed at its
// position. Two predictable length compares replace the loop's n
// data-dependent iterations. n ≤ 0 returns 0, as the loop did.
func LoadTail(s string, i, n int) uint64 {
	switch {
	case n >= 4:
		lo := LoadU32(s, i)
		hi := LoadU32(s, i+n-4)
		return lo | hi<<(8*uint(n-4))
	case n >= 2:
		lo := LoadU16(s, i)
		last := uint64(s[i+n-1]) << (8 * uint(n-1))
		return lo | last
	case n == 1:
		return uint64(s[i])
	default:
		return 0
	}
}
