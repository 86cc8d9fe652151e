package core

import "github.com/sepe-go/sepe/internal/pattern"

// refProvenanceOf is the former provenanceOf, kept as the oracle the
// dense-index version is compared against: it finds each key bit's
// column through a map and grows the columns one append at a time.
// Only the name differs from the original.
//
// It probes each executed load's extraction network on
// single-bit inputs — l.extract is linear with extract(0) == 0, so
// extract(1<<b) is exactly the hash-bit vector word bit b reaches —
// and accumulates the per-key-bit columns by xor (a bit reaching the
// same hash bit twice cancels, as it does in the executed function).
// It reports ok=false when a load reads outside the modeled key.
func refProvenanceOf(p *Plan, pat *pattern.Pattern) (*provenance, bool) {
	length := keyLen(p)
	loads, tailStart := activeLoads(p, length)
	for i := range loads {
		width := pattern.WordSize
		if loads[i].Partial != 0 {
			width = loads[i].Partial
		}
		if loads[i].Offset < 0 || loads[i].Offset+width > length {
			return nil, false
		}
	}

	pr := &provenance{tailStart: tailStart}
	index := map[BitRef]int{}
	colOf := func(r BitRef) int {
		if i, ok := index[r]; ok {
			return i
		}
		index[r] = len(pr.cols)
		pr.cols = append(pr.cols, 0)
		pr.refs = append(pr.refs, r)
		pr.aesCovered = append(pr.aesCovered, false)
		return len(pr.cols) - 1
	}
	// Register every variable bit of the guaranteed region first, in
	// key order, so unread bits exist as zero columns (dead entropy).
	limit := pat.MinLen
	if length < limit {
		limit = length
	}
	for pos := 0; pos < limit; pos++ {
		vb := pat.Bytes[pos].VarBits()
		for bit := 0; bit < 8; bit++ {
			if vb&(1<<bit) == 0 {
				continue
			}
			if pos >= tailStart && !p.Fixed {
				pr.tailBits++
				continue
			}
			colOf(BitRef{Byte: pos, Bit: bit})
		}
	}
	aes := p.Family == Aes
	for li := range loads {
		l := &loads[li]
		width := pattern.WordSize
		if l.Partial != 0 {
			width = l.Partial
		}
		for b := 0; b < 8*width; b++ {
			pos := l.Offset + b/8
			if pos >= pat.MinLen {
				continue // beyond the guaranteed region (or clamped pad)
			}
			if pat.Bytes[pos].VarBits()&(1<<(b%8)) == 0 {
				continue // constant bit: contributes a constant, no column
			}
			r := BitRef{Byte: pos, Bit: b % 8}
			if !p.Fixed && pos >= tailStart {
				continue // tail-owned bit (registered above)
			}
			i := colOf(r)
			if aes {
				// Full words feed the 128-bit state unmasked; one AES
				// round is modeled as full diffusion, so reaching the
				// state at all is what matters.
				pr.aesCovered[i] = true
				continue
			}
			pr.cols[i] ^= l.extract(uint64(1) << b)
		}
	}
	return pr, true
}
