package adaptive

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/sepe-go/sepe/internal/hashes"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// Test formats: "old" keys are 8 digits, "new" keys are 4 lowercase
// letters. A deliberately weak specialized stand-in collapses on
// anything non-digit.
func isOld(k string) bool {
	if len(k) != 8 {
		return false
	}
	for i := 0; i < len(k); i++ {
		if k[i] < '0' || k[i] > '9' {
			return false
		}
	}
	return true
}

func isNew(k string) bool {
	if len(k) != 4 {
		return false
	}
	for i := 0; i < len(k); i++ {
		if k[i] < 'a' || k[i] > 'z' {
			return false
		}
	}
	return true
}

// fake is a test Function: any hash function paired with any format
// predicate.
type fake struct {
	hash    hashes.Func
	matches func(string) bool
}

func (f *fake) Func() hashes.Func       { return f.hash }
func (f *fake) Matches(key string) bool { return f.matches(key) }

func oldKey(i int) string { return fmt.Sprintf("%08d", i) }

func newKey(i int) string {
	b := []byte{'a', 'a', 'a', 'a'}
	for j := 3; j >= 0 && i > 0; j-- {
		b[j] = 'a' + byte(i%26)
		i /= 26
	}
	return string(b)
}

// fastCfg returns a config tuned for test speed: observe every call,
// tiny windows and backoffs.
func fastCfg(s Synthesizer) Config {
	return Config{
		SampleEvery:    1,
		MinKeys:        16,
		ReservoirSize:  64,
		MaxAttempts:    3,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     4 * time.Millisecond,
		AttemptTimeout: time.Second,
		Drift:          telemetry.DriftConfig{Window: 32, MinSamples: 8},
		Synthesize:     s,
		Registry:       telemetry.NewRegistry(),
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdaptiveStaysSpecializedOnConformingStream(t *testing.T) {
	synth := func(context.Context, []string) (Function, error) {
		t.Error("synthesizer invoked on a conforming stream")
		return nil, errors.New("unexpected")
	}
	h, err := New("t", &fake{hashes.City, isOld}, fastCfg(synth))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 5000; i++ {
		h.Hash(oldKey(i))
	}
	if got := h.State(); got != StateSpecialized {
		t.Fatalf("state = %v, want Specialized", got)
	}
	if f, g := h.Serving(); f == nil || g != 1 {
		t.Fatalf("Serving() = %v, %d; want the original Function at generation 1", f, g)
	}
}

func TestAdaptiveDegradesSwapsAndRecovers(t *testing.T) {
	var synthKeys []string
	var mu sync.Mutex
	cand := &fake{hashes.FNV, isNew}
	synth := func(_ context.Context, keys []string) (Function, error) {
		mu.Lock()
		synthKeys = append([]string(nil), keys...)
		mu.Unlock()
		return cand, nil
	}
	h, err := New("t", &fake{hashes.City, isOld}, fastCfg(synth))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Conforming traffic, then the stream switches format entirely.
	for i := 0; i < 100; i++ {
		h.Hash(oldKey(i))
	}
	i := 0
	waitFor(t, "recovery", func() bool {
		h.Hash(newKey(i))
		i++
		return h.State() == StateRecovered
	})

	// The promoted function is the synthesizer's candidate.
	if got, want := h.Current()(newKey(7)), hashes.FNV(newKey(7)); got != want {
		t.Fatalf("promoted hash(%q) = %#x, want FNV %#x", newKey(7), got, want)
	}
	// Generation: 1 original → 2 fallback → 3 promoted.
	if g := h.Generation(); g != 3 {
		t.Fatalf("generation = %d, want 3", g)
	}
	if f, g := h.Serving(); f != cand || g != 3 {
		t.Fatalf("Serving() = %v, %d; want the candidate at generation 3", f, g)
	}
	// The synthesizer only saw post-drift keys.
	mu.Lock()
	defer mu.Unlock()
	if len(synthKeys) == 0 {
		t.Fatal("synthesizer saw no keys")
	}
	for _, k := range synthKeys {
		if !isNew(k) {
			t.Fatalf("synthesizer saw pre-drift key %q", k)
		}
	}
	// The monitor was reset and re-aimed: new-format keys are
	// conforming now.
	if h.Monitor().Degraded() {
		t.Fatal("monitor still degraded after recovery")
	}
	s := h.Metrics().Snapshot()
	if s.ResynthSuccesses != 1 || s.Generations != 2 {
		t.Fatalf("metrics = %+v", s)
	}
}

func TestAdaptiveSecondDriftRestartsCycle(t *testing.T) {
	matchers := []func(string) bool{isNew, isOld}
	fns := []hashes.Func{hashes.FNV, hashes.Abseil}
	var calls int
	var mu sync.Mutex
	synth := func(_ context.Context, keys []string) (Function, error) {
		mu.Lock()
		n := calls
		calls++
		mu.Unlock()
		return &fake{fns[n%2], matchers[n%2]}, nil
	}
	h, err := New("t", &fake{hashes.City, isOld}, fastCfg(synth))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	for i := 0; i < 100; i++ {
		h.Hash(oldKey(i))
	}
	i := 0
	waitFor(t, "first recovery", func() bool {
		h.Hash(newKey(i))
		i++
		return h.State() == StateRecovered && h.Generation() == 3
	})
	// Drift back to the old format: the cycle must run again.
	waitFor(t, "second recovery", func() bool {
		h.Hash(oldKey(i))
		i++
		return h.Generation() == 5 && h.State() == StateRecovered
	})
	if got, want := h.Current()(oldKey(3)), hashes.Abseil(oldKey(3)); got != want {
		t.Fatalf("second promotion installed wrong function")
	}
	s := h.Metrics().Snapshot()
	if s.ResynthSuccesses != 2 {
		t.Fatalf("successes = %d, want 2", s.ResynthSuccesses)
	}
}

func TestAdaptiveCircuitBreakerPinsFallback(t *testing.T) {
	boom := errors.New("no format in this mess")
	synth := func(context.Context, []string) (Function, error) {
		return nil, boom
	}
	h, err := New("t", &fake{hashes.City, isOld}, fastCfg(synth))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	for i := 0; i < 100; i++ {
		h.Hash(oldKey(i))
	}
	i := 0
	waitFor(t, "circuit breaker", func() bool {
		h.Hash(newKey(i))
		i++
		return h.State() == StatePinned
	})
	// Pinned: the fallback serves and no further generations happen.
	if got, want := h.Current()("abcd"), hashes.STL("abcd"); got != want {
		t.Fatal("pinned hash is not the fallback")
	}
	gen := h.Generation()
	if f, g := h.Serving(); f != nil || g != gen {
		t.Fatalf("pinned Serving() = %v, %d; want nil (fallback) at generation %d", f, g, gen)
	}
	for j := 0; j < 2000; j++ {
		h.Hash(newKey(j))
	}
	time.Sleep(10 * time.Millisecond)
	if h.Generation() != gen || h.State() != StatePinned {
		t.Fatalf("pinned hash moved: gen %d→%d state %v", gen, h.Generation(), h.State())
	}
	s := h.Metrics().Snapshot()
	if s.ResynthAttempts != 3 || s.ResynthFailures != 3 || s.ResynthSuccesses != 0 {
		t.Fatalf("metrics = %+v", s)
	}
}

func TestAdaptiveValidationRejectsNonMatchingCandidate(t *testing.T) {
	// The candidate's matcher rejects everything: validation must fail
	// every attempt and trip the breaker.
	synth := func(context.Context, []string) (Function, error) {
		return &fake{hashes.FNV, func(string) bool { return false }}, nil
	}
	h, err := New("t", &fake{hashes.City, isOld}, fastCfg(synth))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 100; i++ {
		h.Hash(oldKey(i))
	}
	i := 0
	waitFor(t, "breaker after validation failures", func() bool {
		h.Hash(newKey(i))
		i++
		return h.State() == StatePinned
	})
	if s := h.Metrics().Snapshot(); s.ResynthSuccesses != 0 {
		t.Fatalf("a rejected candidate was promoted: %+v", s)
	}
}

func TestAdaptiveValidationRejectsCollapsingCandidate(t *testing.T) {
	// The candidate matches the stream but hashes everything to 42:
	// the collision probe must reject it.
	synth := func(context.Context, []string) (Function, error) {
		return &fake{func(string) uint64 { return 42 }, isNew}, nil
	}
	h, err := New("t", &fake{hashes.City, isOld}, fastCfg(synth))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 100; i++ {
		h.Hash(oldKey(i))
	}
	i := 0
	waitFor(t, "breaker after collision rejections", func() bool {
		h.Hash(newKey(i))
		i++
		return h.State() == StatePinned
	})
	if s := h.Metrics().Snapshot(); s.ResynthSuccesses != 0 {
		t.Fatalf("a collapsing candidate was promoted: %+v", s)
	}
}

func TestAdaptiveAttemptTimeout(t *testing.T) {
	synth := func(ctx context.Context, _ []string) (Function, error) {
		<-ctx.Done() // simulate a hung synthesis; must be cancelled
		return nil, ctx.Err()
	}
	cfg := fastCfg(synth)
	cfg.MaxAttempts = 2
	cfg.AttemptTimeout = 20 * time.Millisecond
	h, err := New("t", &fake{hashes.City, isOld}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 100; i++ {
		h.Hash(oldKey(i))
	}
	i := 0
	waitFor(t, "timeout-driven breaker", func() bool {
		h.Hash(newKey(i))
		i++
		return h.State() == StatePinned
	})
	if s := h.Metrics().Snapshot(); s.ResynthFailures != 2 {
		t.Fatalf("failures = %d, want 2", s.ResynthFailures)
	}
}

func TestAdaptiveCloseStopsHealPromptly(t *testing.T) {
	started := make(chan struct{})
	synth := func(ctx context.Context, _ []string) (Function, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	cfg := fastCfg(synth)
	cfg.AttemptTimeout = time.Hour // only Close can unblock the attempt
	h, err := New("t", &fake{hashes.City, isOld}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Hash(oldKey(i))
	}
	i := 0
	waitFor(t, "heal start", func() bool {
		h.Hash(newKey(i))
		i++
		select {
		case <-started:
			return true
		default:
			return false
		}
	})
	doneClose := make(chan struct{})
	go func() { h.Close(); close(doneClose) }()
	select {
	case <-doneClose:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while an attempt was in flight")
	}
	// A cancelled heal must not pin: the hash stays on the fallback.
	if h.State() == StatePinned {
		t.Fatal("Close tripped the circuit breaker")
	}
	// The hash still works after Close.
	_ = h.Hash("abcd")
}

func TestAdaptiveConcurrentHashDuringDrift(t *testing.T) {
	synth := func(context.Context, []string) (Function, error) {
		return &fake{hashes.FNV, isNew}, nil
	}
	h, err := New("t", &fake{hashes.City, isOld}, fastCfg(synth))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				if i < 1000 {
					h.Hash(oldKey(g*1000 + i))
				} else {
					h.Hash(newKey(g*1000 + i))
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "settled state", func() bool {
		s := h.State()
		return s == StateRecovered || s == StatePinned
	})
}

// TestAdaptiveSamplesByCount drives a Function whose constant hash
// value no hash-bit test would ever select, through HashGen and then
// through HashBatch in batches of uneven sizes, then from several
// goroutines at once. Sampling counts calls, so the monitor must be
// handed exactly the keys of calls SampleEvery, 2×SampleEvery, … on
// both paths, and exactly one key per SampleEvery concurrent calls.
func TestAdaptiveSamplesByCount(t *testing.T) {
	const every, n = 256, 16 * 256
	var mu sync.Mutex
	var checked []string
	flat := &fake{
		hash: func(string) uint64 { return 1 },
		matches: func(k string) bool {
			mu.Lock()
			checked = append(checked, k)
			mu.Unlock()
			return isOld(k)
		},
	}
	cfg := fastCfg(func(context.Context, []string) (Function, error) {
		return nil, errors.New("unexpected")
	})
	cfg.SampleEvery = every
	h, err := New("t", flat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	want := func(from int) []string {
		var keys []string
		for i := from + every - 1; i < from+n; i += every {
			keys = append(keys, oldKey(i))
		}
		return keys
	}

	for i := 0; i < n; i++ {
		h.HashGen(oldKey(i))
	}
	if got := h.Monitor().Snapshot().Observed; got != n/every {
		t.Fatalf("HashGen: monitor observed %d keys, want %d", got, n/every)
	}
	if got, w := strings.Join(checked, ","), strings.Join(want(0), ","); got != w {
		t.Fatalf("HashGen: monitor checked %s, want %s", got, w)
	}

	checked = nil
	out := make([]uint64, 3*every)
	for i, size := n, 0; i < 2*n; i += size {
		size = min(1+i%(3*every), 2*n-i)
		keys := make([]string, size)
		for j := range keys {
			keys[j] = oldKey(i + j)
		}
		h.HashBatch(keys, out)
	}
	if got := h.Monitor().Snapshot().Observed; got != 2*n/every {
		t.Fatalf("HashBatch: monitor observed %d keys, want %d", got-n/every, n/every)
	}
	if got, w := strings.Join(checked, ","), strings.Join(want(n), ","); got != w {
		t.Fatalf("HashBatch: monitor checked %s, want %s", got, w)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([]string, 100)
			for j := range keys {
				keys[j] = oldKey(g*len(keys) + j)
			}
			out := make([]uint64, len(keys))
			for i := 0; i < n/len(keys); i++ {
				h.HashBatch(keys, out)
				h.HashGen(keys[i%len(keys)])
			}
		}(g)
	}
	wg.Wait()
	calls := 2*n + 4*(n/100)*101
	if got := h.Monitor().Snapshot().Observed; got != uint64(calls/every) {
		t.Fatalf("concurrent: monitor observed %d keys after %d calls, want %d", got, calls, calls/every)
	}
}

func TestNewRejectsNilArguments(t *testing.T) {
	ok := func(context.Context, []string) (Function, error) {
		return &fake{hashes.FNV, isNew}, nil
	}
	if _, err := New("t", nil, Config{Synthesize: ok}); !errors.Is(err, ErrNilHash) {
		t.Fatalf("nil fn: err = %v", err)
	}
	if _, err := New("t", &fake{hashes.City, isOld}, Config{}); !errors.Is(err, ErrNilSynthesizer) {
		t.Fatalf("nil synthesizer: err = %v", err)
	}
}

func TestReservoirRing(t *testing.T) {
	r := newReservoir(4)
	if got := r.len(); got != 0 {
		t.Fatalf("empty len = %d", got)
	}
	r.add("a")
	r.add("b")
	if s := r.snapshot(); len(s) != 2 || s[0] != "a" || s[1] != "b" {
		t.Fatalf("snapshot = %v", s)
	}
	for _, k := range []string{"c", "d", "e", "f"} {
		r.add(k)
	}
	// Oldest-first wraparound: c d e f.
	if s := r.snapshot(); len(s) != 4 || s[0] != "c" || s[3] != "f" {
		t.Fatalf("wrapped snapshot = %v", s)
	}
	r.clear()
	if r.len() != 0 || len(r.snapshot()) != 0 {
		t.Fatal("clear left keys behind")
	}
}

// TestReservoirDoesNotAliasCallerKeys checks that the reservoir copies
// the keys it keeps: a key sliced out of a large request body must not
// pin that body for as long as it stays in the ring.
func TestReservoirDoesNotAliasCallerKeys(t *testing.T) {
	body := strings.Repeat("x", 1<<10) + "12345678"
	key := body[len(body)-8:]
	r := newReservoir(4)
	r.add(key)
	got := r.snapshot()[0]
	if got != key {
		t.Fatalf("stored %q, want %q", got, key)
	}
	if unsafe.StringData(got) == unsafe.StringData(key) {
		t.Fatal("reservoir stores the caller's bytes, not a copy")
	}
}

// TestGenerationMatchesPinnedVariant swaps variants while other
// goroutines hash, and checks that every generation HashBatch and
// HashGen report is the generation of the function that produced the
// values — a response built from them never straddles a swap.
func TestGenerationMatchesPinnedVariant(t *testing.T) {
	// Generation g hashes with fnOf(g), so every value names its
	// generation. The matcher accepts everything: no drift, so the test
	// is the only swapper.
	fnOf := func(gen uint64) hashes.Func {
		return func(k string) uint64 { return hashes.FNV(k)&(1<<48-1) | gen<<48 }
	}
	never := func(context.Context, []string) (Function, error) {
		return nil, errors.New("unexpected re-synthesis")
	}
	all := func(string) bool { return true }
	h, err := New("t", &fake{fnOf(1), all}, fastCfg(never))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	keys := make([]string, 32)
	for i := range keys {
		keys[i] = oldKey(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]uint64, len(keys))
			for b := 0; b < 2000; b++ {
				gen := h.HashBatch(keys, out)
				for i, k := range keys {
					if want := fnOf(gen)(k); out[i] != want {
						t.Errorf("HashBatch reported generation %d, but key %d hashed to %#x, want %#x", gen, i, out[i], want)
						return
					}
				}
				if hv, gen := h.HashGen(keys[0]); hv != fnOf(gen)(keys[0]) {
					t.Errorf("HashGen reported generation %d with hash %#x", gen, hv)
					return
				}
			}
		}()
	}
	hashed := make(chan struct{})
	go func() {
		wg.Wait()
		close(hashed)
	}()
	// Swap until every hasher is done, so swaps keep landing mid-batch.
	for swapping := true; swapping; {
		select {
		case <-hashed:
			swapping = false
		default:
			h.swap(&fake{fnOf(h.Generation() + 1), all})
		}
	}
	if h.Generation() < 2 {
		t.Fatal("no swap happened")
	}
}
