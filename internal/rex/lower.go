package rex

import (
	"encoding/binary"
	"fmt"

	"github.com/sepe-go/sepe/internal/pattern"
)

// MaxForms bounds how many distinct linear forms an expression may
// expand into during lowering. Key-format expressions are essentially
// linear (fixed repetitions over classes), so real inputs expand to a
// handful of forms; the bound only exists to reject pathological
// nestings of '?' and alternation.
const MaxForms = 512

// maxFormLen bounds the byte length of a single form DURING expansion,
// with the same 16 KiB limit Lower applies to the finished pattern
// (infer.MaxKeyLen). Checking only at the end is not enough: a nested
// repetition like (a{1048576}){1048576} multiplies form lengths during
// expansion and would exhaust memory long before the final check runs.
const maxFormLen = pattern.WordSize << 11

// form is one linear shape of the expression's language: a byte-set
// per position.
type form []Set

// Lower converts a parsed expression into a key-format pattern.
//
// The expression is expanded into its linear forms (one per combination
// of alternation branches and repetition counts) and the forms are
// joined pointwise over the quad-semilattice, exactly as example-based
// inference joins example keys. The result is therefore the pattern
// that Infer would produce from a set of examples exercising every
// class member at every position — the "good set of examples" of
// Example 3.6 — which makes the two SEPE front ends agree by
// construction.
func Lower(n Node) (*pattern.Pattern, error) {
	e, err := expand(n)
	if err != nil {
		return nil, err
	}
	forms := e.forms
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
	// A position some form lacks may be absent → free byte, mirroring
	// the ⊤-padding of the quad join; so only the first minLen positions
	// carry information. There, the join of the forms' bytes is the byte
	// of the union of their sets: a bit pair is known exactly when every
	// member of every set agrees on it. A form that starts where the one
	// before it starts (the capped prefixes repeat builds) holds the same
	// sets below minLen, so it adds nothing.
	bytes := make([]pattern.Byte, maxLen)
	union := make([]Set, minLen)
	for j, f := range forms {
		if minLen > 0 && j > 0 && &f[0] == &forms[j-1][0] {
			continue
		}
		for i := range union {
			union[i].Union(f[i])
		}
	}
	for i, s := range union {
		bytes[i] = setByte(s)
	}
	p := &pattern.Pattern{Bytes: bytes, MinLen: minLen, MaxLen: maxLen}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("rex: internal inconsistency: %w", err)
	}
	return p, nil
}

// ParseAndLower is the one-call front end used by keysynth.
func ParseAndLower(expr string) (*pattern.Pattern, error) {
	n, err := Parse(expr)
	if err != nil {
		return nil, err
	}
	return Lower(n)
}

// expansion is a node's language as the lowering sees it: its distinct
// linear forms, and n, the number of forms a copy-per-count expansion
// would list before dropping duplicates. The MaxForms bound applies to
// n, so the bound rejects exactly the expressions whose full listing
// would be too large, even though only the distinct forms are built.
type expansion struct {
	forms []form
	n     int
}

func errTooManyForms() error {
	return fmt.Errorf("rex: expression expands to more than %d forms", MaxForms)
}

func errFormTooLong() error {
	return fmt.Errorf("rex: format of more than %d bytes is too long", maxFormLen)
}

func expand(n Node) (expansion, error) {
	switch n := n.(type) {
	case *Lit:
		var s Set
		s.Add(n.B)
		return expansion{forms: []form{{s}}, n: 1}, nil
	case *Class:
		return expansion{forms: []form{{n.Set}}, n: 1}, nil
	case *Concat:
		acc := expansion{forms: []form{{}}, n: 1}
		for _, part := range n.Parts {
			sub, err := expand(part)
			if err != nil {
				return expansion{}, err
			}
			if acc, err = concat(acc, sub); err != nil {
				return expansion{}, err
			}
		}
		return acc, nil
	case *Alt:
		var out expansion
		for _, b := range n.Branches {
			sub, err := expand(b)
			if err != nil {
				return expansion{}, err
			}
			out.forms = append(out.forms, sub.forms...)
			out.n += sub.n
			if out.n > MaxForms {
				return expansion{}, errTooManyForms()
			}
		}
		out.forms = dedupe(out.forms)
		out.n = len(out.forms)
		return out, nil
	case *Rep:
		sub, err := expand(n.Sub)
		if err != nil {
			return expansion{}, err
		}
		return repeat(sub, n.Min, n.Max)
	default:
		return expansion{}, fmt.Errorf("rex: unknown node %T", n)
	}
}

// concat appends b's language to a's. The bounds are checked on counts
// and lengths before anything is built. When both sides have a single
// form, b's form is appended to a's in place: a Concat's accumulator
// owns its form, so a run of single-form parts costs their total length
// rather than a copy of the prefix per part.
func concat(a, b expansion) (expansion, error) {
	if a.n*b.n > MaxForms {
		return expansion{}, errTooManyForms()
	}
	if maxLen(a.forms)+maxLen(b.forms) > maxFormLen {
		return expansion{}, errFormTooLong()
	}
	if len(a.forms) == 1 && len(b.forms) == 1 {
		a.forms[0] = append(a.forms[0], b.forms[0]...)
		a.n *= b.n
		return a, nil
	}
	return expansion{forms: dedupe(cross(a.forms, b.forms)), n: a.n * b.n}, nil
}

// repeat lowers sub{min,max}. The bounds are replayed on counts and
// lengths alone (checkRepeat), so they fire on the same repetition as
// a copy-per-count expansion would; only then are the distinct forms
// built, in time linear in their total length.
func repeat(sub expansion, min, max int) (expansion, error) {
	if err := checkRepeat(sub.n, maxLen(sub.forms), min, max); err != nil {
		return expansion{}, err
	}
	var forms []form
	switch {
	case len(sub.forms) == 0:
		if min == 0 {
			forms = []form{{}}
		}
	case len(sub.forms) == 1 && len(sub.forms[0]) == 0:
		// A body that only expands to the empty form repeats to it.
		forms = []form{{}}
	case len(sub.forms) == 1:
		// sub^k for k = min..max are prefixes of sub^max, sharing its
		// array (Lower joins them once); each is capped so that a later
		// in-place append copies instead of overwriting its neighbour.
		s := sub.forms[0]
		full := make(form, 0, max*len(s))
		for i := 0; i < max; i++ {
			full = append(full, s...)
		}
		for k := min; k <= max; k++ {
			forms = append(forms, full[:k*len(s):k*len(s)])
		}
	default:
		// Several forms: checkRepeat has bounded max by log2(MaxForms).
		cur := []form{{}}
		for i := 0; i < min; i++ {
			cur = dedupe(cross(cur, sub.forms))
		}
		forms = append(forms, cur...)
		for i := min; i < max; i++ {
			cur = dedupe(cross(cur, sub.forms))
			forms = append(forms, cur...)
		}
		forms = dedupe(forms)
	}
	return expansion{forms: forms, n: len(forms)}, nil
}

// checkRepeat replays, in order, the bound checks of expanding a
// repetition one copy at a time from a body of c forms of at most m
// bytes: sub^min first, then each further copy up to max, keeping the
// forms of every count from min to max. Past the two cases where
// nothing grows, each step doubles the count or lengthens the form, so
// the loops end within maxFormLen+1 steps.
func checkRepeat(c, m, min, max int) error {
	switch {
	case c == 0:
		return nil
	case c == 1 && m == 0:
		// Every copy is the empty form again: only the forms kept for
		// the counts min..max can exceed a bound.
		if max-min+1 > MaxForms {
			return errTooManyForms()
		}
		return nil
	}
	count := 1
	for i := 0; i < min; i++ {
		if count*c > MaxForms {
			return errTooManyForms()
		}
		if (i+1)*m > maxFormLen {
			return errFormTooLong()
		}
		count *= c
	}
	total := count
	for i := min; i < max; i++ {
		if count*c > MaxForms {
			return errTooManyForms()
		}
		if (i+1)*m > maxFormLen {
			return errFormTooLong()
		}
		count *= c
		total += count
		if total > MaxForms {
			return errTooManyForms()
		}
	}
	return nil
}

func maxLen(forms []form) int {
	n := 0
	for _, f := range forms {
		if len(f) > n {
			n = len(f)
		}
	}
	return n
}

// cross returns every form of a followed by every form of b, each in a
// new backing array.
func cross(a, b []form) []form {
	out := make([]form, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			f := make(form, 0, len(x)+len(y))
			f = append(f, x...)
			f = append(f, y...)
			out = append(out, f)
		}
	}
	return out
}

// dedupe removes duplicate forms; identical shapes arise whenever a
// repetition body has a single form.
func dedupe(forms []form) []form {
	if len(forms) <= 1 {
		return forms
	}
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

func fingerprint(f form) string {
	buf := make([]byte, 0, len(f)*32)
	for _, s := range f {
		for _, w := range s {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return string(buf)
}

// bitPlanes[b] is the set of byte values with bit b set.
var bitPlanes = func() (planes [8]Set) {
	for c := 0; c < 256; c++ {
		for b := 0; b < 8; b++ {
			if c&(1<<b) != 0 {
				planes[b].Add(byte(c))
			}
		}
	}
	return planes
}()

// setByte folds the quad join over the members of s, producing the
// per-byte Known/Value masks at bit-pair granularity. Bit b is the same
// in every member exactly when s lies wholly inside or wholly outside
// bit plane b, so four word tests per plane replace a walk over the
// 256 possible members.
func setByte(s Set) pattern.Byte {
	if s.Empty() {
		// Empty sets are rejected at parse time; an empty set here is
		// a programming error, but a free byte is the safe answer.
		return pattern.Byte{}
	}
	var ones, zeros byte
	for b := range bitPlanes {
		pl := &bitPlanes[b]
		if s[0]&pl[0]|s[1]&pl[1]|s[2]&pl[2]|s[3]&pl[3] != 0 {
			ones |= 1 << b
		}
		if s[0]&^pl[0]|s[1]&^pl[1]|s[2]&^pl[2]|s[3]&^pl[3] != 0 {
			zeros |= 1 << b
		}
	}
	varies := ones & zeros
	known := byte(0)
	for pair := 0; pair < 4; pair++ {
		pm := byte(0b11 << (2 * pair))
		if varies&pm == 0 {
			known |= pm
		}
	}
	return pattern.Byte{Known: known, Value: ones & known}
}
