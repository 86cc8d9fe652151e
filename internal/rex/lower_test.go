package rex

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/pattern"
	"github.com/sepe-go/sepe/internal/rng"
)

// nestedEmptyReps is eight nested million-fold repetitions of a
// zero-width body: 93 bytes whose copy-per-count expansion runs a
// million steps per level.
var nestedEmptyReps = strings.Repeat("(", 8) + "a{0}" + strings.Repeat("){1048576}", 8) + "b"

// lowerCorpus is every expression the rex tests, the RQ formats and
// the regex fuzz seeds feed the lowering, apart from the long single
// forms the reference needs gigabytes for (TestLowerLongForms).
func lowerCorpus() []string {
	corpus := []string{
		// rex_test.go
		`abc`, `\.`, `\\`, `\x41`, `\n`, `\t`, `\r`, `\0`, `\-`, `\d`, `\h`, `\w`, `\s`,
		`[0-9]`, `[0-9a-fA-F]`, `[^:]`, `[\d.]`, `[a-]`, `[]a]`, `[\]]`, `[\x30-\x39]`,
		`a?`, `a{3}`, `a{2,5}`, `(ab){2}`, `cat|dog|bird`, `cat|car`, `^ab$`, `.{3}`,
		`\x00\x7f`, `[0-9]{3}\.[0-9]{3}`, `a{2,4}`, `ab?c`, `(ab|cd){2}x?`,
		`\d{3}-\d{2}-\d{4}`, `(([0-9]{3})\.){3}[0-9]{3}`, `[0-9]{100}`,
		`https://ex\.com/[a-z0-9]{20}\.html`, `[0-9a-f]{4}:[0-9a-f]{4}`,
		`([0-9a-fA-F]{2}-){5}[0-9a-fA-F]{2}`, `(a|b)?`,
		strings.Repeat(`(a|b)?`, 10), `((x{100}){100}){100}`,
		// fuzz_test.go seeds
		`[0-9]{3}-[0-9]{2}-[0-9]{4}`, `(a|b)?c*d+`, `[0-9]{3}(\.[0-9]{3}){3}`,
		`(a|b)(c|d)(e|f)(g|h)(i|j)(k|l)(m|n)(o|p)(q|r)(s|t)`,
		`\d{4}-\d{2}-\d{2}`, `[^0-9]`, `[]-a]`,
		// the bounds at their edges
		`(a?){9}`, `(a?){10}`, `(a?)(a?){8}`, `(a|b){9}`, `(a|b){0,8}`, `(a|b){0,9}`,
		`a{0,511}`, `a{0,512}`, `(a{0}){0,511}`, `(a{0}){0,512}`, `(a{0}){1048576}b`,
		`(a{0}|b{0}){3}`, `()`, `(|a){4}`, `(a|){0,3}`, `((a?)(a?)){4}`, `((a?)(a?)){5}`,
		`(x{100}){163}`, `(x{100}){164}`, `(x{100}){100,200}`, `(ab|c){3,6}d`,
	}
	for _, t := range keys.All {
		corpus = append(corpus, t.Regex())
	}
	return corpus
}

// randomExpr draws an expression from a small grammar whose counts
// cross both expansion bounds often.
func randomExpr(r *rng.Rand, depth int) string {
	atoms := []string{`a`, `b`, `[0-9]`, `[a-f0-9]`, `.`, `\d`, `x`, `()`}
	var sb strings.Builder
	parts := 1 + r.Intn(3)
	for i := 0; i < parts; i++ {
		var atom string
		switch k := r.Intn(4); {
		case depth > 0 && k == 0:
			atom = "(" + randomExpr(r, depth-1) + "|" + randomExpr(r, depth-1) + ")"
		case depth > 0 && k == 1:
			atom = "(" + randomExpr(r, depth-1) + ")"
		default:
			atom = atoms[r.Intn(len(atoms))]
		}
		sb.WriteString(atom)
		switch r.Intn(5) {
		case 0:
			sb.WriteString("?")
		case 1:
			sb.WriteString("{" + strconv.Itoa(r.Intn(12)) + "}")
		case 2:
			lo := r.Intn(6)
			sb.WriteString("{" + strconv.Itoa(lo) + "," + strconv.Itoa(lo+r.Intn(20)) + "}")
		case 3:
			sb.WriteString("{" + strconv.Itoa(r.Intn(60)) + "}")
		}
	}
	return sb.String()
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstRef lowers expr both ways and requires the same pattern
// or the same error text.
func checkAgainstRef(t *testing.T, expr string) {
	t.Helper()
	n, err := Parse(expr)
	if err != nil {
		return
	}
	got, gerr := Lower(n)
	want, werr := refLower(n)
	if errText(gerr) != errText(werr) {
		t.Fatalf("Lower(%q) error %q, reference %q", expr, errText(gerr), errText(werr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Lower(%q) = %v [%d,%d], reference %v [%d,%d]",
			expr, got.Regex(), got.MinLen, got.MaxLen, want.Regex(), want.MinLen, want.MaxLen)
	}
}

// TestLowerMatchesReference: the linear lowering yields the reference
// lowering's pattern, or its error with the same text, on every
// corpus expression and on random ones.
func TestLowerMatchesReference(t *testing.T) {
	for _, expr := range lowerCorpus() {
		checkAgainstRef(t, expr)
	}
	r := rng.New(29)
	trials := 2000
	if testing.Short() {
		trials = 200
	}
	for i := 0; i < trials; i++ {
		checkAgainstRef(t, randomExpr(r, 3))
	}
}

// TestLowerLongForms: the corpus expressions whose single form reaches
// the length bound keep the reference's verdicts, written out here
// because the reference copies gigabytes to reach them.
func TestLowerLongForms(t *testing.T) {
	const tooLong = "rex: format of more than 16384 bytes is too long"
	for _, c := range []struct {
		expr     string
		err      string
		min, max int
	}{
		{`[0-9]{16384}`, "", 16384, 16384},
		{`[0-9]{16385}`, tooLong, 0, 0},
		{`a{16384}`, "", 16384, 16384},
		{`(a{8192}){2}`, "", 16384, 16384},
		{`(ab){8192}`, "", 16384, 16384},
		{`[0-9]{16000,16384}`, "", 16000, 16384},
		{`(a{8192}){2}b`, tooLong, 0, 0},
		{`(ab){8193}`, tooLong, 0, 0},
		{`a{99999}`, tooLong, 0, 0},
		{`(a{1048576}){1048576}`, tooLong, 0, 0},
		{`(a{16384}){0,2}`, tooLong, 0, 0},
		{`a{16000,16385}`, tooLong, 0, 0},
	} {
		p, err := ParseAndLower(c.expr)
		if errText(err) != c.err {
			t.Errorf("%s: error %q, want %q", c.expr, errText(err), c.err)
			continue
		}
		if err == nil && (p.MinLen != c.min || p.MaxLen != c.max) {
			t.Errorf("%s: len [%d,%d], want [%d,%d]", c.expr, p.MinLen, p.MaxLen, c.min, c.max)
		}
	}
}

// TestLowerNestedEmptyRepetition: a repetition of a body that only
// expands to the empty form lowers to the empty form without stepping
// through its count, however deep the nesting.
func TestLowerNestedEmptyRepetition(t *testing.T) {
	var p *pattern.Pattern
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if p, err = ParseAndLower(nestedEmptyReps); err != nil {
			t.Fatal(err)
		}
	})
	if p.MinLen != 1 || p.MaxLen != 1 || !p.Matches("b") {
		t.Errorf("%s lowered to %s [%d,%d], want b", nestedEmptyReps, p.Regex(), p.MinLen, p.MaxLen)
	}
	if allocs > 200 {
		t.Errorf("lowering %d bytes of nested empty repetitions allocates %.0f times, budget 200", len(nestedEmptyReps), allocs)
	}
	if _, err := ParseAndLower(`(a{0}){0,512}`); errText(err) != "rex: expression expands to more than 512 forms" {
		t.Errorf("(a{0}){0,512}: error %q", errText(err))
	}
}

// TestSetByteMatchesReference: the bit-plane setByte agrees with the
// 256-member fold on every singleton, every range, the parser's
// classes and their complements, and random sets.
func TestSetByteMatchesReference(t *testing.T) {
	check := func(s Set) {
		t.Helper()
		if got, want := setByte(s), refSetByte(s); got != want {
			t.Fatalf("setByte(%s) = %+v, reference %+v", s.String(), got, want)
		}
	}
	check(Set{})
	for lo := 0; lo < 256; lo++ {
		for hi := lo; hi < 256; hi++ {
			var s Set
			s.AddRange(byte(lo), byte(hi))
			check(s)
		}
	}
	for _, s := range []Set{digitSet(), hexSet(), wordSet(), spaceSet(), dotSet()} {
		check(s)
		s.Negate()
		check(s)
	}
	r := rng.New(7)
	for i := 0; i < 20000; i++ {
		var s Set
		switch i % 3 {
		case 0:
			s = Set{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
		case 1:
			for k := r.Intn(4); k >= 0; k-- {
				s.Add(byte(r.Intn(256)))
			}
		default:
			s = Set{r.Uint64() & r.Uint64(), 0, r.Uint64() & r.Uint64() & r.Uint64(), 0}
		}
		check(s)
	}
}
