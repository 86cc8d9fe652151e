// Package adaptive implements self-healing hash functions: a wrapper
// that serves a synthesized specialized function while its key stream
// conforms to the inferred format, and survives format drift — the
// paper's RQ7 failure mode — without operator intervention.
//
// The wrapper runs a small state machine:
//
//	Specialized ──drift──▶ Degraded ──▶ Resynthesizing ──▶ Recovered
//	                                        │    ▲              │
//	                                        │    └──(next drift)─┘
//	                                        └──(circuit breaker)──▶ Pinned
//
// While Specialized, every hash call goes through the synthesized
// function, and one call in SampleEvery, counted, feeds its key to a
// telemetry.DriftMonitor.
// When the monitor degrades, the wrapper atomically swaps the active
// function to a general-purpose fallback (one pointer store; readers
// never block) and starts one background goroutine that re-infers the
// format from a reservoir of recently observed keys, synthesizes a
// candidate, validates it against fresh traffic, and promotes it. The
// attempt loop retries with exponential backoff and jitter, bounds
// each attempt with a context timeout, and after MaxAttempts failures
// trips a circuit breaker that pins the fallback permanently.
//
// The read path is one atomic pointer load plus one atomic add on a
// call counter (one add per batch for HashBatch). Counting calls rather
// than testing hash bits keeps the sampling rate exact for every
// family, including Pext, Naive and OffXor, which do not mix and so
// can map a whole drifted stream onto values no bit test selects.
package adaptive

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/hashes"
	"github.com/sepe-go/sepe/internal/infer"
	"github.com/sepe-go/sepe/internal/seed"
	"github.com/sepe-go/sepe/internal/telemetry"
)

// State is one node of the self-healing state machine.
type State int32

const (
	// StateSpecialized: the synthesized function is serving and the
	// key stream conforms to its format.
	StateSpecialized State = iota
	// StateDegraded: drift was detected and the fallback took over.
	StateDegraded
	// StateResynthesizing: a background attempt loop is re-inferring
	// the format from recent keys.
	StateResynthesizing
	// StateRecovered: a re-synthesized function was validated and
	// promoted; the machine re-arms for future drift.
	StateRecovered
	// StatePinned: re-synthesis failed MaxAttempts times; the circuit
	// breaker pinned the fallback permanently.
	StatePinned
)

// healthOf maps a lifecycle state onto the telemetry health model:
// serving the specialized function is ready; Degraded/Resynthesizing
// serve correctly through the fallback but should steer traffic away
// (not ready); Pinned means the circuit breaker gave up — a restart
// with fresh traffic could help, so it fails liveness.
func healthOf(s State) telemetry.HealthClass {
	switch s {
	case StateSpecialized, StateRecovered:
		return telemetry.HealthReady
	case StatePinned:
		return telemetry.HealthFailed
	default:
		return telemetry.HealthNotReady
	}
}

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateSpecialized:
		return "Specialized"
	case StateDegraded:
		return "Degraded"
	case StateResynthesizing:
		return "Resynthesizing"
	case StateRecovered:
		return "Recovered"
	case StatePinned:
		return "Pinned"
	default:
		return "State?"
	}
}

// Function is a hash function together with the format it was
// specialized to: what a Hash serves, and what a Synthesizer produces.
// Matches is the format's membership predicate, against which the
// drift monitor judges the key stream. *core.Fn implements it.
type Function interface {
	Func() hashes.Func
	Matches(key string) bool
}

// Synthesizer produces a replacement Function from sample keys.
// Implementations must honor ctx cancellation between expensive steps.
type Synthesizer func(ctx context.Context, keys []string) (Function, error)

// NewSynthesizer returns the standard Synthesizer: re-infer the format
// from the sample keys (quad-semilattice join) and synthesize a
// function of the given family for it. When opts carries a seed, every
// call — that is, every re-synthesis attempt of the healing loop —
// keys the candidate with a fresh random seed instead. A flood that
// cornered the old seed (or a leak of it) therefore does not survive
// recovery: the promoted function's placement is fresh, and the
// hot-swap machinery publishes it with the same single atomic store as
// any other promotion.
func NewSynthesizer(fam core.Family, opts core.Options) Synthesizer {
	return func(ctx context.Context, keys []string) (Function, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pat, err := infer.Infer(keys)
		if err != nil {
			return nil, fmt.Errorf("adaptive: re-infer: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o := opts
		if o.Seed != nil {
			o.Seed = seed.New()
		}
		fn, err := core.Synthesize(pat, fam, o)
		if err != nil {
			return nil, fmt.Errorf("adaptive: re-synthesize: %w", err)
		}
		return fn, nil
	}
}

// Config tunes a self-healing Hash. The zero value of every field
// selects the default noted on it.
type Config struct {
	// SampleEvery hands one in n hash calls to the drift monitor,
	// counted across HashGen, Hash and HashBatch (rounded down to a
	// power of two; default 256). The observation costs a mutex plus a
	// format match, so it dominates the wrapper's overhead. Lower
	// values detect drift sooner and cost more per call; 1 observes
	// every call. The telemetry instrumentation checks the same one
	// call in 256.
	SampleEvery int
	// ReservoirSize bounds the ring of recently observed keys the
	// re-synthesis feeds on (default 512).
	ReservoirSize int
	// MinKeys is the number of reservoir keys required before an
	// attempt runs inference (default 64).
	MinKeys int
	// MaxAttempts bounds the re-synthesis attempt loop; exhausting it
	// trips the circuit breaker into StatePinned (default 4).
	MaxAttempts int
	// InitialBackoff is the delay before the second attempt; each
	// further attempt doubles it up to MaxBackoff, with up to 50%
	// uniform jitter added (defaults 50ms, 2s).
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// AttemptTimeout bounds one attempt, including the wait for the
	// reservoir to fill (default 10s).
	AttemptTimeout time.Duration
	// MinMatchRate is the fraction of fresh reservoir keys the
	// candidate's format must match for promotion (default 0.95).
	MinMatchRate float64
	// MaxCollisionRatio rejects a candidate whose bucket collisions on
	// the fresh keys exceed ratio × the fallback's (default 2.0).
	MaxCollisionRatio float64
	// Drift tunes the drift monitor's window, threshold and minimum
	// sample count; the monitor checks every key the wrapper hands it.
	// Its OnDegrade is chained after the wrapper's own handler.
	Drift telemetry.DriftConfig
	// Fallback is the general-purpose function degradation swaps to
	// (default hashes.STL).
	Fallback hashes.Func
	// Synthesize produces replacement functions (required; see
	// NewSynthesizer for the standard choice).
	Synthesize Synthesizer
	// Registry receives the wrapper's drift monitor and lifecycle
	// metrics (default telemetry.Default).
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 256
	}
	if c.ReservoirSize <= 0 {
		c.ReservoirSize = 512
	}
	if c.MinKeys <= 0 {
		c.MinKeys = 64
	}
	if c.MinKeys > c.ReservoirSize {
		c.MinKeys = c.ReservoirSize
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.InitialBackoff <= 0 {
		c.InitialBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.MinMatchRate <= 0 {
		c.MinMatchRate = 0.95
	}
	if c.MaxCollisionRatio <= 0 {
		c.MaxCollisionRatio = 2.0
	}
	if c.Fallback == nil {
		c.Fallback = hashes.STL
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// variant is one generation of the active hash function. Readers load
// it with a single atomic pointer load; swaps install a fresh value,
// so a loaded variant is immutable.
type variant struct {
	fn  hashes.Func
	gen uint64
	// serving is the Function fn belongs to; nil while the fallback
	// serves.
	serving Function
	// format is the last promoted Function, the one the drift monitor
	// judges keys against: serving, or the format that drifted away.
	format Function
}

// Hash is a self-healing hash function. All methods are safe for
// concurrent use.
type Hash struct {
	name string
	cfg  Config
	mask uint64 // drift sampling mask (SampleEvery-1, power of two)
	// seen counts hash calls; a call whose count hits mask feeds its
	// key to Observe.
	seen atomic.Uint64

	cur   atomic.Pointer[variant]
	state atomic.Int32

	monitor *telemetry.DriftMonitor
	metrics *telemetry.AdaptiveMetrics
	rec     *telemetry.Recorder
	res     *reservoir

	baseCtx context.Context
	stop    context.CancelFunc

	mu      sync.Mutex //sepe:lockrank 30
	healing bool
	closed  bool
	done    chan struct{} // current heal goroutine; nil when idle
}

// Errors returned by New.
var (
	ErrNilHash        = errors.New("adaptive: nil hash function")
	ErrNilSynthesizer = errors.New("adaptive: nil synthesizer")
)

// New wraps the specialized Function fn into a self-healing hash named
// name.
func New(name string, fn Function, cfg Config) (*Hash, error) {
	if fn == nil {
		return nil, ErrNilHash
	}
	if cfg.Synthesize == nil {
		return nil, ErrNilSynthesizer
	}
	cfg = cfg.withDefaults()

	mask := uint64(1)
	for mask*2 <= uint64(cfg.SampleEvery) {
		mask *= 2
	}

	ctx, stop := context.WithCancel(context.Background())
	h := &Hash{
		name:    name,
		cfg:     cfg,
		mask:    mask - 1,
		res:     newReservoir(cfg.ReservoirSize),
		baseCtx: ctx,
		stop:    stop,
	}
	h.cur.Store(&variant{fn: fn.Func(), gen: 1, serving: fn, format: fn})
	h.metrics = cfg.Registry.NewAdaptive(name)
	h.rec = cfg.Registry.Recorder()
	h.setState(StateSpecialized)

	// The monitor checks keys against whatever format is currently
	// promoted, through the active variant: after a recovery it
	// automatically judges the stream against the re-inferred format.
	dcfg := cfg.Drift
	userOnDegrade := dcfg.OnDegrade
	dcfg.OnDegrade = func(s telemetry.DriftSnapshot) {
		h.degrade()
		if userOnDegrade != nil {
			userOnDegrade(s)
		}
	}
	h.monitor = cfg.Registry.NewDrift(name, func(key string) bool {
		return h.cur.Load().format.Matches(key)
	}, dcfg)
	return h, nil
}

// Hash applies the currently active function: the specialized one
// while healthy, the fallback after degradation, the re-synthesized
// one after recovery. The extra read-path work is one atomic pointer
// load and one atomic add; every SampleEvery-th call additionally
// feeds the drift monitor and key reservoir.
func (h *Hash) Hash(key string) uint64 {
	hv, _ := h.HashGen(key)
	return hv
}

// HashGen is Hash that also returns the generation of the function
// that produced the value. Reading Generation separately would load
// the active function a second time, so a swap landing in between
// would label a generation-g hash as g+1.
func (h *Hash) HashGen(key string) (uint64, uint64) {
	v := h.cur.Load()
	hv := v.fn(key)
	if h.seen.Add(1)&h.mask == 0 {
		h.Observe(key)
	}
	return hv, v.gen
}

// HashBatch hashes keys[i] into out[i] with the active function
// pinned once for the whole batch — one atomic pointer load instead
// of one per key — and returns that function's generation. The batch
// advances the call counter once by len(keys) and observes the keys
// whose counts hit the sampling mask, so a batch caller observes
// exactly the keys a loop of single calls would. A swap
// that lands mid-batch takes effect on the next batch; within one
// batch the function, and so the returned generation, is consistent.
func (h *Hash) HashBatch(keys []string, out []uint64) uint64 {
	v := h.cur.Load()
	out = out[:len(keys)]
	for i, k := range keys {
		out[i] = v.fn(k)
	}
	// keys[i] is call number before+1+i; the first one divisible by
	// SampleEvery sits at i = -(before+1) mod SampleEvery.
	before := h.seen.Add(uint64(len(keys))) - uint64(len(keys))
	for i := ^before & h.mask; i < uint64(len(keys)); i += h.mask + 1 {
		h.Observe(keys[i])
	}
	return v.gen
}

// Func returns the self-switching function value.
func (h *Hash) Func() hashes.Func { return h.Hash }

// Observe feeds one key to the drift monitor and, while a heal is in
// flight, the re-synthesis reservoir; it bypasses the call counter.
// The adaptive containers, which hash with the pinned Current function
// rather than through Hash, call it on their own count. The reservoir
// is skipped in healthy states because degrade() clears it before the
// heal goroutine ever reads it — collecting keys there would only pay
// an extra lock per sample.
func (h *Hash) Observe(key string) {
	h.monitor.Observe(key)
	switch State(h.state.Load()) {
	case StateDegraded, StateResynthesizing:
		h.res.add(key)
	}
}

// Name returns the wrapper's name.
func (h *Hash) Name() string { return h.name }

// State returns the current lifecycle state.
func (h *Hash) State() State { return State(h.state.Load()) }

// Generation returns the active function's generation: 1 for the
// original specialized function, +1 per swap (fallback or promotion).
// Containers watch it to start incremental migrations.
func (h *Hash) Generation() uint64 { return h.cur.Load().gen }

// Current returns a pinned snapshot of the active function — the
// function itself, not the self-switching wrapper — for callers that
// need a stable hash across a batch of operations (the containers'
// migration machinery).
func (h *Hash) Current() hashes.Func { return h.cur.Load().fn }

// Serving returns the Function the hash serves and its generation,
// from one load, so the pair always describes the same swap: the
// generation is the one HashGen and HashBatch report for values that
// Function produced. The Function is nil while the fallback serves.
func (h *Hash) Serving() (Function, uint64) {
	v := h.cur.Load()
	return v.serving, v.gen
}

// Monitor returns the wrapper's drift monitor.
func (h *Hash) Monitor() *telemetry.DriftMonitor { return h.monitor }

// Metrics returns the wrapper's lifecycle metric block.
func (h *Hash) Metrics() *telemetry.AdaptiveMetrics { return h.metrics }

// Close cancels any background re-synthesis and waits for it to
// finish. The hash remains usable after Close with whatever function
// was active, but will no longer heal.
func (h *Hash) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	done := h.done
	h.mu.Unlock()
	h.stop()
	if done != nil {
		<-done
	}
}

func (h *Hash) setState(s State) {
	h.state.Store(int32(s))
	h.metrics.SetState(int64(s), s.String(), healthOf(s))
}

// swap atomically installs fn as the serving Function, or the
// fallback when fn is nil.
func (h *Hash) swap(fn Function) {
	old := h.cur.Load()
	v := &variant{fn: h.cfg.Fallback, gen: old.gen + 1, format: old.format}
	if fn != nil {
		v.fn, v.serving, v.format = fn.Func(), fn, fn
	}
	h.cur.Store(v)
	h.metrics.Generation()
}

// degrade is the monitor's OnDegrade handler: swap to the fallback
// immediately (readers see it on their next pointer load) and start
// the background heal loop.
func (h *Hash) degrade() {
	h.mu.Lock()
	if h.closed || h.healing || h.State() == StatePinned {
		h.mu.Unlock()
		return
	}
	h.healing = true
	done := make(chan struct{})
	h.done = done
	h.mu.Unlock()

	h.setState(StateDegraded)
	h.swap(nil)
	// Only keys observed after the swap describe the drifted stream;
	// a reservoir polluted with pre-drift keys would re-infer the
	// format that just failed.
	h.res.clear()
	go h.heal(done)
}

// heal is the background re-synthesis loop: attempt → validate →
// promote, with exponential backoff plus jitter between attempts, a
// per-attempt context timeout, and a circuit breaker pinning the
// fallback after MaxAttempts failures.
func (h *Hash) heal(done chan struct{}) {
	defer close(done)
	telemetry.Span(h.rec, "adaptive", "adaptive.heal", func() []telemetry.Attr {
		h.resynthesize()
		return nil
	}, telemetry.Str("hash", h.name))
}

// resynthesize runs heal's attempts until one is promoted, Close
// cancels the loop, or the circuit breaker pins the fallback.
func (h *Hash) resynthesize() {
	h.setState(StateResynthesizing)
	backoff := h.cfg.InitialBackoff
	for attempt := 0; attempt < h.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			delay := backoff + time.Duration(rand.Float64()*0.5*float64(backoff))
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-h.baseCtx.Done():
				timer.Stop()
				return
			}
			if backoff *= 2; backoff > h.cfg.MaxBackoff {
				backoff = h.cfg.MaxBackoff
			}
		}
		h.metrics.Attempt()
		var fn Function
		var err error
		telemetry.Span(h.rec, "adaptive", "adaptive.resynth", func() []telemetry.Attr {
			actx, cancel := context.WithTimeout(h.baseCtx, h.cfg.AttemptTimeout)
			defer cancel()
			fn, err = h.attempt(actx)
			return []telemetry.Attr{telemetry.Bool("ok", err == nil)}
		}, telemetry.Str("hash", h.name), telemetry.Int("attempt", attempt+1))
		if err == nil {
			h.promote(fn)
			return
		}
		h.metrics.Failure()
		if h.baseCtx.Err() != nil {
			return // Close raced the attempt; stay degraded, don't pin.
		}
	}
	h.setState(StatePinned)
}

// attempt runs one re-synthesis: wait for enough post-drift keys,
// synthesize, then validate the candidate against a fresh snapshot.
func (h *Hash) attempt(ctx context.Context) (Function, error) {
	keys, err := h.waitForKeys(ctx)
	if err != nil {
		return nil, err
	}
	fn, err := h.cfg.Synthesize(ctx, keys)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Validate against the *current* reservoir, not the snapshot the
	// candidate was inferred from: a stream still churning through
	// formats fails here and the attempt retries later.
	fresh := h.res.snapshot()
	if len(fresh) == 0 {
		fresh = keys
	}
	matched := 0
	for _, k := range fresh {
		if fn.Matches(k) {
			matched++
		}
	}
	if rate := float64(matched) / float64(len(fresh)); rate < h.cfg.MinMatchRate {
		return nil, fmt.Errorf("adaptive: candidate format matches %.2f of fresh keys, need %.2f", rate, h.cfg.MinMatchRate)
	}
	uniq := dedup(fresh)
	candColl := collProbe(fn.Func(), uniq)
	fallColl := collProbe(h.cfg.Fallback, uniq)
	// The +2 absolute slack keeps tiny samples from rejecting a good
	// candidate when the fallback happens to probe collision-free.
	if float64(candColl) > h.cfg.MaxCollisionRatio*float64(fallColl)+2 {
		return nil, fmt.Errorf("adaptive: candidate bucket collisions %d vs fallback %d exceed ratio %.1f", candColl, fallColl, h.cfg.MaxCollisionRatio)
	}
	return fn, nil
}

// waitForKeys blocks until the reservoir holds MinKeys post-drift
// keys, then snapshots it.
func (h *Hash) waitForKeys(ctx context.Context) ([]string, error) {
	if h.res.len() >= h.cfg.MinKeys {
		return h.res.snapshot(), nil
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if h.res.len() >= h.cfg.MinKeys {
				return h.res.snapshot(), nil
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("adaptive: reservoir has %d of %d keys: %w", h.res.len(), h.cfg.MinKeys, ctx.Err())
		}
	}
}

// promote installs a validated candidate: swap it in, which also
// re-aims the drift monitor at the re-inferred format, and reset the
// monitor so the new generation starts with a clean window and a
// re-armed OnDegrade — a later second drift restarts the whole cycle.
func (h *Hash) promote(fn Function) {
	h.swap(fn)
	h.monitor.Reset()
	h.metrics.Success()
	h.setState(StateRecovered)
	h.mu.Lock()
	h.healing = false
	h.done = nil
	h.mu.Unlock()
}

// collProbe counts bucket collisions (Σ max(0, len(bucket)−1)) of fn
// over keys in a table of ~2× as many buckets — a cheap stand-in for
// the paper's B-Coll measurement, comparing candidate and fallback on
// identical traffic.
func collProbe(fn hashes.Func, keys []string) int {
	if len(keys) == 0 {
		return 0
	}
	buckets := 2*len(keys) + 1
	counts := make([]int, buckets)
	for _, k := range keys {
		counts[fn(k)%uint64(buckets)]++
	}
	coll := 0
	for _, n := range counts {
		if n > 1 {
			coll += n - 1
		}
	}
	return coll
}

// dedup returns keys with duplicates removed, order preserved.
func dedup(keys []string) []string {
	seen := make(map[string]struct{}, len(keys))
	out := keys[:0:0]
	for _, k := range keys {
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, k)
	}
	return out
}

// reservoir is a mutex-guarded ring of the most recently observed
// keys — the sample the background re-synthesis feeds on.
type reservoir struct {
	mu   sync.Mutex //sepe:lockrank 40
	keys []string
	pos  int
	full bool
}

func newReservoir(size int) *reservoir {
	return &reservoir{keys: make([]string, size)}
}

// add stores a copy of key: callers may hand in a substring of a much
// larger buffer (a request body), which a stored reference would pin
// for as long as the key stays in the ring.
func (r *reservoir) add(key string) {
	key = strings.Clone(key)
	r.mu.Lock()
	r.keys[r.pos] = key
	r.pos++
	if r.pos == len(r.keys) {
		r.pos = 0
		r.full = true
	}
	r.mu.Unlock()
}

func (r *reservoir) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.keys)
	}
	return r.pos
}

func (r *reservoir) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.pos
	if r.full {
		n = len(r.keys)
	}
	out := make([]string, n)
	if r.full {
		copy(out, r.keys[r.pos:])
		copy(out[len(r.keys)-r.pos:], r.keys[:r.pos])
	} else {
		copy(out, r.keys[:n])
	}
	return out
}

func (r *reservoir) clear() {
	r.mu.Lock()
	for i := range r.keys {
		r.keys[i] = ""
	}
	r.pos, r.full = 0, false
	r.mu.Unlock()
}
