package rex

import (
	"fmt"

	"github.com/sepe-go/sepe/internal/pattern"
)

// refLower is the former lowering, kept as the oracle the linear one is
// compared against: every repetition count and every concatenated part
// copies the forms built so far (refCross), duplicates are dropped by a
// fingerprint map (refDedupe), each byte-set is folded over its 256
// possible members (refSetByte), and the forms' bytes are joined one
// form at a time (joinBytes). Only the names differ from the
// original. It is quadratic in the repetition count, so the tests feed
// it only inputs it finishes quickly.
func refLower(n Node) (*pattern.Pattern, error) {
	forms, err := refExpand(n)
	if err != nil {
		return nil, err
	}
	if len(forms) == 0 {
		return nil, fmt.Errorf("rex: expression has empty language")
	}
	minLen, maxLen := len(forms[0]), len(forms[0])
	for _, f := range forms[1:] {
		if len(f) < minLen {
			minLen = len(f)
		}
		if len(f) > maxLen {
			maxLen = len(f)
		}
	}
	if maxLen > pattern.WordSize<<11 { // 16 KiB, matches infer.MaxKeyLen
		return nil, fmt.Errorf("rex: format of %d bytes is too long", maxLen)
	}
	bytes := make([]pattern.Byte, maxLen)
	for i := range bytes {
		first := true
		var acc pattern.Byte
		for _, f := range forms {
			if i >= len(f) {
				acc = pattern.Byte{}
				first = false
				continue
			}
			b := refSetByte(f[i])
			if first {
				acc, first = b, false
				continue
			}
			acc = joinBytes(acc, b)
		}
		bytes[i] = acc
	}
	p := &pattern.Pattern{Bytes: bytes, MinLen: minLen, MaxLen: maxLen}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("rex: internal inconsistency: %w", err)
	}
	return p, nil
}

func refExpand(n Node) ([]form, error) {
	switch n := n.(type) {
	case *Lit:
		var s Set
		s.Add(n.B)
		return []form{{s}}, nil
	case *Class:
		return []form{{n.Set}}, nil
	case *Concat:
		forms := []form{{}}
		for _, part := range n.Parts {
			sub, err := refExpand(part)
			if err != nil {
				return nil, err
			}
			forms, err = refCross(forms, sub)
			if err != nil {
				return nil, err
			}
		}
		return forms, nil
	case *Alt:
		var forms []form
		for _, b := range n.Branches {
			sub, err := refExpand(b)
			if err != nil {
				return nil, err
			}
			forms = append(forms, sub...)
			if len(forms) > MaxForms {
				return nil, fmt.Errorf("rex: expression expands to more than %d forms", MaxForms)
			}
		}
		return refDedupe(forms), nil
	case *Rep:
		sub, err := refExpand(n.Sub)
		if err != nil {
			return nil, err
		}
		base := []form{{}}
		for i := 0; i < n.Min; i++ {
			base, err = refCross(base, sub)
			if err != nil {
				return nil, err
			}
		}
		out := append([]form(nil), base...)
		cur := base
		for i := n.Min; i < n.Max; i++ {
			cur, err = refCross(cur, sub)
			if err != nil {
				return nil, err
			}
			out = append(out, cur...)
			if len(out) > MaxForms {
				return nil, fmt.Errorf("rex: expression expands to more than %d forms", MaxForms)
			}
		}
		return refDedupe(out), nil
	default:
		return nil, fmt.Errorf("rex: unknown node %T", n)
	}
}

func refCross(a, b []form) ([]form, error) {
	if len(a)*len(b) > MaxForms {
		return nil, fmt.Errorf("rex: expression expands to more than %d forms", MaxForms)
	}
	maxA, maxB := 0, 0
	for _, x := range a {
		if len(x) > maxA {
			maxA = len(x)
		}
	}
	for _, y := range b {
		if len(y) > maxB {
			maxB = len(y)
		}
	}
	if maxA+maxB > maxFormLen {
		return nil, fmt.Errorf("rex: format of more than %d bytes is too long", maxFormLen)
	}
	out := make([]form, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			f := make(form, 0, len(x)+len(y))
			f = append(f, x...)
			f = append(f, y...)
			out = append(out, f)
		}
	}
	return out, nil
}

func refDedupe(forms []form) []form {
	seen := make(map[string]bool, len(forms))
	out := forms[:0]
	for _, f := range forms {
		k := fingerprint(f)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

// refSetByte folds the quad join over the members of s one member at
// a time.
func refSetByte(s Set) pattern.Byte {
	first := -1
	for c := 0; c < 256; c++ {
		if s.Has(byte(c)) {
			first = c
			break
		}
	}
	if first < 0 {
		return pattern.Byte{}
	}
	known := byte(0xFF)
	value := byte(first)
	for c := first + 1; c < 256; c++ {
		if !s.Has(byte(c)) {
			continue
		}
		diff := value ^ byte(c)
		for pair := 0; pair < 4; pair++ {
			pm := byte(0b11 << (2 * pair))
			if diff&pm != 0 {
				known &^= pm
			}
		}
	}
	value &= known
	return pattern.Byte{Known: known, Value: value}
}

// joinBytes joins two per-byte descriptions at bit-pair granularity.
func joinBytes(a, b pattern.Byte) pattern.Byte {
	known := byte(0)
	for pair := 0; pair < 4; pair++ {
		pm := byte(0b11 << (2 * pair))
		if a.Known&pm == pm && b.Known&pm == pm && a.Value&pm == b.Value&pm {
			known |= pm
		}
	}
	return pattern.Byte{Known: known, Value: a.Value & known}
}
