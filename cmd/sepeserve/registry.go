package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/sepe-go/sepe/internal/adaptive"
	"github.com/sepe-go/sepe/internal/core"
	"github.com/sepe-go/sepe/internal/infer"
	"github.com/sepe-go/sepe/internal/pattern"
	"github.com/sepe-go/sepe/internal/rex"
	"github.com/sepe-go/sepe/internal/seed"
	"github.com/sepe-go/sepe/internal/telemetry"
	"github.com/sepe-go/sepe/internal/wire"
)

// The registry owns the daemon's tenants: named key formats, each
// backed by a synthesized hash function wrapped in the adaptive
// self-healing machinery. A tenant's life cycle is
//
//	pending ──synthesis ok──▶ ready ──drift──▶ (adaptive heals in place)
//	   │
//	   └──synthesis failed──▶ failed
//
// Hashing is served only in the ready state; pending tenants answer
// 503 (synthesis runs in the background), failed ones keep their error
// for the status endpoint until re-registered. Once ready, a tenant
// never leaves the state: mid-resynthesis traffic is absorbed by the
// adaptive wrapper's fallback tier and generation-counted hot swap,
// exactly as in the library API.
//
// The adaptive hash is the one owner of what a ready tenant serves:
// status, plan export and the certificate all read its serving
// Function and generation, and never keep a copy of either.
//
// When the daemon has a plan cache, registration and import write the
// tenant's plan as a wire frame under its name, shutdown rewrites each
// tenant's serving plan (a re-synthesized one reaches disk only once
// promoted), and boot preloads every cached entry — restarts skip
// re-synthesis entirely. Seeds are per-process (DESIGN.md §11): the
// frame never carries keying material, so a preloaded keyed tenant is
// re-keyed with a fresh seed, deliberately changing its hash placement
// across restarts.

type tenantState int32

const (
	statePending tenantState = iota
	stateReady
	stateFailed
)

func (s tenantState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateReady:
		return "ready"
	case stateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// tenant is one named format. mu guards the mutable fields; the hash
// wrapper itself is internally synchronized and read lock-free on the
// hot path.
type tenant struct {
	name string

	mu      sync.RWMutex //sepe:lockrank 20
	state   tenantState
	errMsg  string // failed state only
	source  string // "regex", "examples", "import", "cache"
	spec    string // the registered regex, if any
	family  core.Family
	keyed   bool
	created time.Time
	since   time.Time // time of the last state change

	hash *adaptive.Hash // ready state only
}

// registry is the tenant table plus the shared services tenants use.
type registry struct {
	reg   *telemetry.Registry
	cache *wire.Cache // nil: no persistence
	quick bool        // test mode: tighter adaptive timeouts

	mu      sync.RWMutex //sepe:lockrank 10
	tenants map[string]*tenant
}

func newRegistry(tel *telemetry.Registry, cache *wire.Cache) *registry {
	return &registry{reg: tel, cache: cache, tenants: make(map[string]*tenant)}
}

var (
	errUnknownTenant = errors.New("unknown format")
	errTenantExists  = errors.New("format already registered")
	errNotReady      = errors.New("format not ready")
	errFallback      = errors.New("format is serving the fallback hash")
	errBadRequest    = errors.New("bad request")
)

// lookup returns the tenant or errUnknownTenant.
func (r *registry) lookup(name string) (*tenant, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", errUnknownTenant, name)
	}
	return t, nil
}

func (r *registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tenants))
	for n := range r.tenants {
		out = append(out, n)
	}
	return out
}

// parseFamily maps the request's family string to a core.Family.
func parseFamily(s string) (core.Family, error) {
	switch strings.ToLower(s) {
	case "", "pext":
		return core.Pext, nil
	case "naive":
		return core.Naive, nil
	case "offxor":
		return core.OffXor, nil
	case "aes":
		return core.Aes, nil
	}
	return 0, fmt.Errorf("%w: unknown family %q (naive, offxor, aes, pext)", errBadRequest, s)
}

// registration is a validated register request.
type registration struct {
	name     string
	regex    string   // exactly one of regex/examples is set
	examples []string //
	family   core.Family
	keyed    bool
}

// register creates a pending tenant and starts background synthesis.
// The tenant is immediately visible (status polls see "pending").
func (r *registry) register(req registration) (*tenant, error) {
	if !wire.ValidName(req.name) {
		return nil, fmt.Errorf("%w: name %q not in [A-Za-z0-9][A-Za-z0-9._-]{0,63}", errBadRequest, req.name)
	}
	if (req.regex == "") == (len(req.examples) == 0) {
		return nil, fmt.Errorf("%w: exactly one of regex or examples required", errBadRequest)
	}
	t := &tenant{
		name:    req.name,
		state:   statePending,
		family:  req.family,
		keyed:   req.keyed,
		spec:    req.regex,
		created: time.Now(),
		since:   time.Now(),
	}
	if req.regex != "" {
		t.source = "regex"
	} else {
		t.source = "examples"
	}
	r.mu.Lock()
	if _, ok := r.tenants[req.name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", errTenantExists, req.name)
	}
	r.tenants[req.name] = t
	r.mu.Unlock()

	go r.synthesize(t, req)
	return t, nil
}

// synthesize runs the initial synthesis for a registered tenant and
// promotes it to ready (or failed).
func (r *registry) synthesize(t *tenant, req registration) {
	pat, err := func() (*pattern.Pattern, error) {
		if req.regex != "" {
			return rex.ParseAndLower(req.regex)
		}
		return infer.Infer(req.examples)
	}()
	if err != nil {
		r.fail(t, fmt.Errorf("format: %w", err))
		return
	}
	opts := core.Options{}
	if t.keyed {
		opts.Seed = seed.New()
	}
	fn, err := core.Synthesize(pat, t.family, opts)
	if err != nil {
		r.fail(t, fmt.Errorf("synthesis: %w", err))
		return
	}
	r.persist(t.name, fn)
	if err := r.promote(t, fn); err != nil {
		r.fail(t, err)
	}
}

// fail parks the tenant in the failed state with its error.
func (r *registry) fail(t *tenant, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state = stateFailed
	t.errMsg = err.Error()
	t.since = time.Now()
}

// promote installs a freshly compiled function as the tenant's first
// generation: wraps it in the adaptive machinery and flips the state
// to ready. Re-synthesis re-infers the format from observed keys and
// synthesizes the tenant's family; a keyed tenant's candidates are
// keyed with a fresh seed each, so a cornered seed does not survive
// recovery.
func (r *registry) promote(t *tenant, fn *core.Fn) error {
	opts := core.Options{}
	if t.keyed {
		opts.Seed = seed.New()
	}
	cfg := adaptive.Config{
		Registry:   r.reg,
		Synthesize: adaptive.NewSynthesizer(t.family, opts),
	}
	if r.quick {
		cfg.AttemptTimeout = 2 * time.Second
		cfg.InitialBackoff = 10 * time.Millisecond
		cfg.MaxBackoff = 50 * time.Millisecond
	}
	ah, err := adaptive.New(t.name, fn, cfg)
	if err != nil {
		return fmt.Errorf("adaptive wrap: %w", err)
	}
	t.mu.Lock()
	t.hash = ah
	t.state = stateReady
	t.since = time.Now()
	t.mu.Unlock()
	return nil
}

// persist writes the plan's wire frame to the cache, when one is
// configured. Persistence is best-effort: a full disk must not take
// hashing down, so failures are recorded as telemetry events only.
func (r *registry) persist(name string, fn *core.Fn) {
	if r.cache == nil {
		return
	}
	frame, err := wire.Encode(fn.Plan())
	if err == nil {
		err = r.cache.Save(name, frame)
	}
	if err != nil {
		r.reg.Recorder().Instant("cache", "persist-failed",
			telemetry.Str("tenant", name), telemetry.Str("error", err.Error()))
	}
}

// adopt installs an externally supplied decoded plan (import endpoint)
// under name, replacing any existing tenant. The plan has already
// passed the wire decoder's validation; FromPlan re-runs the
// structural gate and compiles for this process's CPU. Plans that were
// keyed at the exporter are re-keyed with a fresh local seed.
func (r *registry) adopt(name string, d *wire.Decoded, source string) (*tenant, error) {
	if !wire.ValidName(name) {
		return nil, fmt.Errorf("%w: name %q not in [A-Za-z0-9][A-Za-z0-9._-]{0,63}", errBadRequest, name)
	}
	opts := core.Options{}
	if d.WasSeeded {
		opts.Seed = seed.New()
	}
	fn, err := d.Compile(opts)
	if err != nil {
		return nil, fmt.Errorf("%w: plan rejected: %v", errBadRequest, err)
	}
	t := &tenant{
		name:    name,
		state:   statePending,
		family:  d.Plan.Family,
		keyed:   d.WasSeeded,
		spec:    d.Plan.Pattern.Regex(),
		source:  source,
		created: time.Now(),
		since:   time.Now(),
	}
	if err := r.promote(t, fn); err != nil {
		return nil, err
	}
	old := r.swap(name, t)
	if old != nil && old.closer() != nil {
		old.closer().Close()
	}
	return t, nil
}

// swap replaces (or inserts) the tenant under name, returning the
// previous one.
func (r *registry) swap(name string, t *tenant) *tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.tenants[name]
	r.tenants[name] = t
	return old
}

// remove deletes the tenant and its cache entry.
func (r *registry) remove(name string) error {
	r.mu.Lock()
	t, ok := r.tenants[name]
	delete(r.tenants, name)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", errUnknownTenant, name)
	}
	if h := t.closer(); h != nil {
		h.Close()
	}
	if r.cache != nil {
		return r.cache.Remove(name)
	}
	return nil
}

// closer returns the adaptive wrapper to close, if the tenant got far
// enough to have one.
func (t *tenant) closer() *adaptive.Hash {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.hash
}

// preload warms the registry from the plan cache: every valid entry
// becomes a ready tenant without synthesis. Corrupt or stale entries
// are skipped (and left for the next registration to overwrite); the
// number of adopted tenants is returned.
func (r *registry) preload() (int, error) {
	if r.cache == nil {
		return 0, nil
	}
	names, err := r.cache.Names()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, name := range names {
		d, err := r.cache.Load(name)
		if err != nil {
			r.reg.Recorder().Instant("cache", "preload-skipped",
				telemetry.Str("tenant", name), telemetry.Str("error", err.Error()))
			continue
		}
		if _, err := r.adopt(name, d, "cache"); err != nil {
			r.reg.Recorder().Instant("cache", "preload-skipped",
				telemetry.Str("tenant", name), telemetry.Str("error", err.Error()))
			continue
		}
		n++
	}
	return n, nil
}

// close shuts down every tenant's healing loop, then persists the
// plan each tenant serves, so the cache holds what was served last —
// never a candidate the healing loop rejected. A tenant serving the
// fallback keeps its cache entry as it was.
func (r *registry) close() {
	r.mu.Lock()
	tenants := r.tenants
	r.tenants = make(map[string]*tenant)
	r.mu.Unlock()
	for _, t := range tenants {
		h := t.closer()
		if h == nil {
			continue
		}
		h.Close()
		if fn, _ := serving(h); fn != nil {
			r.persist(t.name, fn)
		}
	}
}

// serving returns the plan h serves and the generation its hash
// answers carry, from one read of the adaptive hash. The plan is nil
// while the fallback serves.
func serving(h *adaptive.Hash) (*core.Fn, uint64) {
	f, gen := h.Serving()
	fn, _ := f.(*core.Fn)
	return fn, gen
}
