package lockorder_test

import (
	"testing"

	"github.com/sepe-go/sepe/internal/analysis/analysistest"
	"github.com/sepe-go/sepe/internal/analysis/lockorder"
)

// A correctly layered program: ranks increase inward, callbacks run
// only after the lock is released.
func TestCleanOrder(t *testing.T) {
	got := analysistest.Run(t, map[string]string{
		"svc/svc.go": `package svc

import "sync"

type registry struct {
	mu sync.RWMutex //sepe:lockrank 10
	m  map[string]*tenant
}

type tenant struct {
	mu sync.Mutex //sepe:lockrank 20
	n  int
}

func (r *registry) bump(name string) {
	r.mu.RLock()
	t := r.m[name]
	r.mu.RUnlock()
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
}

func (r *registry) nested(name string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := r.m[name]
	t.mu.Lock()
	t.n++
	t.mu.Unlock()
}

func (r *registry) each(f func(*tenant)) {
	r.mu.RLock()
	snap := make([]*tenant, 0, len(r.m))
	for _, t := range r.m {
		snap = append(snap, t)
	}
	r.mu.RUnlock()
	for _, t := range snap {
		f(t)
	}
}
`,
	}, lockorder.Analyzer)
	analysistest.Expect(t, got)
}

// Acquiring a lower rank while holding a higher one violates the
// declared order, directly and through a call.
func TestRankViolation(t *testing.T) {
	got := analysistest.Run(t, map[string]string{
		"svc/svc.go": `package svc

import "sync"

type state struct {
	outer sync.Mutex //sepe:lockrank 10
	inner sync.Mutex //sepe:lockrank 20
}

func (s *state) backwards() {
	s.inner.Lock()
	defer s.inner.Unlock()
	s.outer.Lock()
	s.outer.Unlock()
}

func (s *state) lockOuter() {
	s.outer.Lock()
	s.outer.Unlock()
}

func (s *state) backwardsViaCall() {
	s.inner.Lock()
	defer s.inner.Unlock()
	s.lockOuter()
}
`,
	}, lockorder.Analyzer)
	analysistest.Expect(t, got,
		"acquires svc.state.outer while holding svc.state.inner: lockrank 10 does not increase over 20",
		"acquires svc.state.outer while holding svc.state.inner via call to lockOuter: lockrank 10 does not increase over 20",
	)
}

// The lockorder cycle regression: no single function nests both ways,
// but f (A held, calls into B) and h (B held, calls into A) together
// close an inter-procedural cycle — the shard→callback deadlock shape
// PR 5 fixed, reconstructed across three functions.
func TestInterproceduralCycle(t *testing.T) {
	got := analysistest.Run(t, map[string]string{
		"svc/svc.go": `package svc

import "sync"

type shards struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *shards) lockA() {
	s.a.Lock()
	s.a.Unlock()
}

func (s *shards) lockB() {
	s.b.Lock()
	s.b.Unlock()
}

func (s *shards) aThenB() {
	s.a.Lock()
	defer s.a.Unlock()
	s.lockB()
}

func (s *shards) bThenA() {
	s.b.Lock()
	defer s.b.Unlock()
	s.lockA()
}
`,
	}, lockorder.Analyzer)
	analysistest.Expect(t, got,
		"acquires svc.shards.b while holding svc.shards.a via call to lockB — completes a lock-order cycle [svc.shards.a ⇄ svc.shards.b]",
		"acquires svc.shards.a while holding svc.shards.b via call to lockA — completes a lock-order cycle [svc.shards.a ⇄ svc.shards.b]",
	)
}

// Re-acquiring the same class while it is held is a self-deadlock.
func TestSelfDeadlock(t *testing.T) {
	got := analysistest.Run(t, map[string]string{
		"svc/svc.go": `package svc

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) get() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

func (b *box) sum() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n + b.get()
}
`,
	}, lockorder.Analyzer)
	analysistest.Expect(t, got,
		"acquires svc.box.mu while holding svc.box.mu via call to get — same lock class is already held",
	)
}

// Callbacks must not run under ranked locks: the striped-container
// ForEach shape, both direct and through a forwarding helper.
func TestCallbackUnderRankedLock(t *testing.T) {
	got := analysistest.Run(t, map[string]string{
		"shardlike/map.go": `package shardlike

import "sync"

// stripe is one lock stripe of the container.
//
//sepe:lockrank 50
type stripe struct {
	sync.RWMutex
	keys []string
}

type Map struct {
	stripes []stripe
}

func (m *Map) ForEach(f func(string)) {
	for i := range m.stripes {
		m.stripes[i].RLock()
		for _, k := range m.stripes[i].keys {
			f(k)
		}
		m.stripes[i].RUnlock()
	}
}

func (m *Map) visit(i int, f func(string)) {
	for _, k := range m.stripes[i].keys {
		f(k)
	}
}

func (m *Map) ForEachViaHelper(f func(string)) {
	for i := range m.stripes {
		m.stripes[i].RLock()
		m.visit(i, f)
		m.stripes[i].RUnlock()
	}
}

// ForEachSnapshot is the fixed shape: copy under the lock, call back
// outside it.
func (m *Map) ForEachSnapshot(f func(string)) {
	for i := range m.stripes {
		m.stripes[i].RLock()
		snap := append([]string(nil), m.stripes[i].keys...)
		m.stripes[i].RUnlock()
		for _, k := range snap {
			f(k)
		}
	}
}

// CollectUnderLock is also clean: visit runs a callback, but the
// callback passed is a local literal — package code, not the caller's.
func (m *Map) CollectUnderLock() []string {
	var out []string
	collect := func(k string) { out = append(out, k) }
	for i := range m.stripes {
		m.stripes[i].RLock()
		m.visit(i, collect)
		m.stripes[i].RUnlock()
	}
	return out
}

// ForEachInlineWrap must still be flagged: the literal wraps the
// caller-supplied f, so the callback runs under the lock regardless.
func (m *Map) ForEachInlineWrap(f func(string)) {
	for i := range m.stripes {
		m.stripes[i].RLock()
		m.visit(i, func(k string) { f(k) })
		m.stripes[i].RUnlock()
	}
}
`,
	}, lockorder.Analyzer)
	analysistest.Expect(t, got,
		"calls func value f while holding shardlike.stripe (lockrank 50): callbacks must not run under ranked locks",
		"call to visit may run a callback while holding shardlike.stripe (lockrank 50): callbacks must not run under ranked locks",
		// ForEachInlineWrap: the wrapping literal is caught twice — the
		// call to visit propagates the callback, and the literal's own
		// f(k) runs under the outer held set.
		"call to visit may run a callback while holding shardlike.stripe (lockrank 50): callbacks must not run under ranked locks",
		"calls func value f while holding shardlike.stripe (lockrank 50): callbacks must not run under ranked locks",
	)
}

// shardHeader declares a miniature of internal/shard's core: a ranked
// lock stripe, per-shard tables with a synchronous iterator, and a
// stored callback field.
const shardHeader = `package shard

import "sync"

// shardLock is one lock stripe.
//
//sepe:lockrank 50
type shardLock struct{ sync.RWMutex }

type tab struct{ keys []int }

func (tab) Put(k int) {}
func (t tab) ForEach(f func(int)) {
	for _, k := range t.keys {
		f(k)
	}
}
func (tab) Len() int { return 0 }

type T struct {
	locks []shardLock
	tabs  []tab
	cb    func(int)
}
`

func runShard(t *testing.T, body string) []string {
	t.Helper()
	return analysistest.Run(t, map[string]string{
		"internal/shard/shard.go": shardHeader,
		"internal/shard/ops.go":   "package shard\n\n" + body,
	}, lockorder.Analyzer)
}

// Two stripes of one class nested: the rank does not increase, and the
// class is already held.
func TestNestedLocks(t *testing.T) {
	got := runShard(t, `
func (t *T) bad() {
	t.locks[0].Lock()
	t.locks[1].Lock()
	t.locks[1].Unlock()
	t.locks[0].Unlock()
}
`)
	analysistest.Expect(t, got,
		"acquires shard.shardLock while holding shard.shardLock: lockrank 50 does not increase over 50",
		"acquires shard.shardLock while holding shard.shardLock — same lock class is already held",
	)
}

func TestSequentialLocksAreClean(t *testing.T) {
	got := runShard(t, `
func (t *T) good() int {
	n := 0
	for i := range t.tabs {
		t.locks[i].RLock()
		n += t.tabs[i].Len()
		t.locks[i].RUnlock()
	}
	return n
}

func (t *T) deferred(i int) int {
	t.locks[i].Lock()
	defer t.locks[i].Unlock()
	return t.tabs[i].Len()
}
`)
	analysistest.Expect(t, got)
}

func TestCallbackFieldUnderLock(t *testing.T) {
	got := runShard(t, `
func (t *T) bad(i int) {
	t.locks[i].Lock()
	t.cb(i)
	t.locks[i].Unlock()
}
`)
	analysistest.Expect(t, got,
		"calls func value t.cb while holding shard.shardLock (lockrank 50): callbacks must not run under ranked locks")
}

func TestCallbackParamUnderLock(t *testing.T) {
	got := runShard(t, `
func (t *T) bad(i int, f func(int)) {
	t.locks[i].Lock()
	f(i)
	t.locks[i].Unlock()
}
`)
	analysistest.Expect(t, got,
		"calls func value f while holding shard.shardLock (lockrank 50): callbacks must not run under ranked locks")
}

func TestForwardedCallbackUnderLock(t *testing.T) {
	got := runShard(t, `
func (t *T) bad(f func(int)) {
	for i := range t.tabs {
		t.locks[i].RLock()
		t.tabs[i].ForEach(f)
		t.locks[i].RUnlock()
	}
}
`)
	analysistest.Expect(t, got,
		"call to ForEach may run a callback while holding shard.shardLock (lockrank 50): callbacks must not run under ranked locks")
}

// The snapshot idiom must stay clean: collect under the lock with a
// locally defined literal, call the user callback after unlocking.
func TestSnapshotIdiomIsClean(t *testing.T) {
	got := runShard(t, `
func (t *T) good(f func(int)) {
	for i := range t.tabs {
		var keys []int
		collect := func(k int) { keys = append(keys, k) }
		t.locks[i].RLock()
		t.tabs[i].ForEach(collect)
		t.locks[i].RUnlock()
		for _, k := range keys {
			f(k)
		}
	}
}

func (t *T) hoisted(f func(int) int, i int) {
	v := f(i)
	t.locks[i].Lock()
	t.tabs[i].Put(v)
	t.locks[i].Unlock()
}
`)
	analysistest.Expect(t, got)
}

// A func field called under an unranked lock is outside the declared
// order and goes unreported.
func TestUnrankedLockCallbackIsClean(t *testing.T) {
	got := analysistest.Run(t, map[string]string{
		"other/other.go": `package other

import "sync"

type T struct {
	locks []sync.RWMutex
	cb    func(int)
}

func (t *T) unranked(i int) {
	t.locks[i].Lock()
	t.cb(i)
	t.locks[i].Unlock()
}
`,
	}, lockorder.Analyzer)
	analysistest.Expect(t, got)
}
