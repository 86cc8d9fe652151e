package sepe_test

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/sepe-go/sepe"
)

// The composition differential test drives every container the four
// constructors can build — 4 kinds × {single-owner, Sharded(4)} ×
// {STLHash, synthesized OffXor and Aes, *AdaptiveHash} ×
// {plain, Observed} — with seeded op tapes and compares every answer
// with a Go map model. Adaptive compositions swap hash generations
// mid-tape (forced drift, then an injected re-synthesis); sharded ones
// run four goroutines on disjoint keys, so under -race the tape
// doubles as a concurrency probe; observed ones must report exactly
// the operations the tape issued and the container's B-Coll.
// FuzzCompositionOps replays fuzzer-chosen op tapes on one composition
// against the same model.

// cut is the container under test: one adapter per kind maps the
// kind's methods onto a multimap-shaped surface the model can check.
type cut interface {
	put(k string, v int) bool // whether the key was new (multi kinds: true)
	values(k string) []int    // Get, Has, GetAll or Count, as values
	count(k string) int
	del(k string) int
	putBatch(keys []string, vals []int)
	hasBatch(keys []string) []bool
	forEach(f func(k string, v int))
	Len() int
	Reserve(n int)
	Clear()
	Stats() sepe.TableStats
	ShardStats() []sepe.TableStats
	Shards() int
	LoadFactor() float64
	Migrating() bool
}

type mapCUT struct{ *sepe.Map[int] }

func (c mapCUT) put(k string, v int) bool { return c.Put(k, v) }
func (c mapCUT) values(k string) []int {
	if v, ok := c.Get(k); ok {
		return []int{v}
	}
	return nil
}
func (c mapCUT) count(k string) int                 { return len(c.values(k)) }
func (c mapCUT) del(k string) int                   { return c.Delete(k) }
func (c mapCUT) putBatch(keys []string, vals []int) { c.PutBatch(keys, vals) }
func (c mapCUT) hasBatch(keys []string) []bool {
	vals, found := make([]int, len(keys)), make([]bool, len(keys))
	c.GetBatch(keys, vals, found)
	return found
}
func (c mapCUT) forEach(f func(string, int)) { c.ForEach(f) }

type setCUT struct{ *sepe.Set }

func (c setCUT) put(k string, _ int) bool { return c.Add(k) }
func (c setCUT) values(k string) []int {
	if c.Has(k) {
		return []int{0}
	}
	return nil
}
func (c setCUT) count(k string) int              { return len(c.values(k)) }
func (c setCUT) del(k string) int                { return c.Delete(k) }
func (c setCUT) putBatch(keys []string, _ []int) { c.AddBatch(keys) }
func (c setCUT) forEach(f func(string, int))     { c.ForEach(func(k string) { f(k, 0) }) }
func (c setCUT) hasBatch(keys []string) []bool {
	found := make([]bool, len(keys))
	c.HasBatch(keys, found)
	return found
}

type multiMapCUT struct{ *sepe.MultiMap[int] }

func (c multiMapCUT) put(k string, v int) bool           { c.Put(k, v); return true }
func (c multiMapCUT) values(k string) []int              { return c.GetAll(k) }
func (c multiMapCUT) count(k string) int                 { return c.Count(k) }
func (c multiMapCUT) del(k string) int                   { return c.Delete(k) }
func (c multiMapCUT) putBatch(keys []string, vals []int) { c.PutBatch(keys, vals) }
func (c multiMapCUT) forEach(f func(string, int))        { c.ForEach(f) }
func (c multiMapCUT) hasBatch(keys []string) []bool {
	found := make([]bool, len(keys))
	for i, k := range keys {
		found[i] = c.Count(k) > 0
	}
	return found
}

type multiSetCUT struct{ *sepe.MultiSet }

func (c multiSetCUT) put(k string, _ int) bool        { c.Add(k); return true }
func (c multiSetCUT) values(k string) []int           { return make([]int, c.Count(k)) }
func (c multiSetCUT) count(k string) int              { return c.Count(k) }
func (c multiSetCUT) del(k string) int                { return c.Delete(k) }
func (c multiSetCUT) putBatch(keys []string, _ []int) { c.AddBatch(keys) }
func (c multiSetCUT) forEach(f func(string, int))     { c.ForEach(func(k string) { f(k, 0) }) }
func (c multiSetCUT) hasBatch(keys []string) []bool {
	found := make([]bool, len(keys))
	for i, k := range keys {
		found[i] = c.Has(k)
	}
	return found
}

var compositionKinds = []string{"Map", "Set", "MultiMap", "MultiSet"}

// build constructs kind over src through the public constructors only.
func build[S sepe.HashSource](kind string, src S, opts []sepe.ContainerOption) cut {
	switch kind {
	case "Map":
		return mapCUT{sepe.NewMap[int](src, opts...)}
	case "Set":
		return setCUT{sepe.NewSet(src, opts...)}
	case "MultiMap":
		return multiMapCUT{sepe.NewMultiMap[int](src, opts...)}
	default:
		return multiSetCUT{sepe.NewMultiSet(src, opts...)}
	}
}

// model is the reference: every key's values in insertion order. A
// non-multi kind holds at most one value per key, a set kind only 0.
type model struct {
	multi, valued bool
	m             map[string][]int
}

func (m *model) put(k string, v int) bool {
	if !m.valued {
		v = 0
	}
	isNew := len(m.m[k]) == 0
	if m.multi {
		m.m[k] = append(m.m[k], v)
		return true
	}
	m.m[k] = []int{v}
	return isNew
}

func (m *model) del(k string) int {
	n := len(m.m[k])
	delete(m.m, k)
	return n
}

func (m *model) len() int {
	n := 0
	for _, vs := range m.m {
		n += len(vs)
	}
	return n
}

// entries lists the model's key/value pairs, sorted.
func (m *model) entries() []string {
	var out []string
	for k, vs := range m.m {
		for _, v := range vs {
			out = append(out, fmt.Sprintf("%s=%d", k, v))
		}
	}
	slices.Sort(out)
	return out
}

// snapshotEntries lists c's pairs through ForEach, sorted.
func snapshotEntries(c cut) []string {
	var out []string
	c.forEach(func(k string, v int) { out = append(out, fmt.Sprintf("%s=%d", k, v)) })
	slices.Sort(out)
	return out
}

// opCounts tallies the container operations a tape issued, as the
// observed metrics count them.
type opCounts struct{ puts, gets, dels uint64 }

func (o *opCounts) add(p opCounts) { o.puts += p.puts; o.gets += p.gets; o.dels += p.dels }

// compositionKey is worker g's i-th key, in the SSN format the
// adaptive compositions are specialized to; workers never share keys.
func compositionKey(g, i int) string { return fmt.Sprintf("%03d-%02d-%04d", 100+g, i%100, i) }

// runTape drives n random ops of worker g against c and m, failing on
// the first divergence, which it returns. whole enables the whole-container ops (Len,
// Clear, ForEach) a worker can only check when it runs alone. mid, if
// set, runs once halfway through.
func runTape(t *testing.T, c cut, m *model, g, n int, whole bool, mid func()) (opCounts, error) {
	r := rand.New(rand.NewPCG(uint64(g)+1, 0x5e9e))
	key := func() string { return compositionKey(g, r.IntN(96)) }
	var ops opCounts
	for step := 0; step < n; step++ {
		if step == n/2 && mid != nil {
			mid()
		}
		switch op := r.IntN(100); {
		case op < 30:
			k, v := key(), step
			if got, want := c.put(k, v), m.put(k, v); got != want {
				return ops, fmt.Errorf("worker %d step %d: put(%q) new=%v, model %v", g, step, k, got, want)
			}
			ops.puts++
		case op < 45:
			k := key()
			got, want := c.values(k), m.m[k]
			ops.gets++
			if m.multi {
				got, want = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))
			}
			if !slices.Equal(got, want) {
				return ops, fmt.Errorf("worker %d step %d: values(%q) = %v, model %v", g, step, k, got, want)
			}
		case op < 55:
			k := key()
			if got, want := c.count(k), len(m.m[k]); got != want {
				return ops, fmt.Errorf("worker %d step %d: count(%q) = %d, model %d", g, step, k, got, want)
			}
			ops.gets++
		case op < 70:
			k := key()
			if got, want := c.del(k), m.del(k); got != want {
				return ops, fmt.Errorf("worker %d step %d: del(%q) = %d, model %d", g, step, k, got, want)
			}
			ops.dels++
		case op < 78:
			keys := make([]string, 1+r.IntN(16))
			vals := make([]int, len(keys))
			for i := range keys {
				keys[i], vals[i] = key(), step*100+i
				m.put(keys[i], vals[i])
			}
			c.putBatch(keys, vals)
			ops.puts += uint64(len(keys))
		case op < 86:
			keys := make([]string, 1+r.IntN(16))
			for i := range keys {
				keys[i] = key()
			}
			for i, found := range c.hasBatch(keys) {
				if want := len(m.m[keys[i]]) > 0; found != want {
					return ops, fmt.Errorf("worker %d step %d: batch lookup %q = %v, model %v", g, step, keys[i], found, want)
				}
			}
			ops.gets += uint64(len(keys))
		case op < 90:
			c.Reserve(r.IntN(512))
		case op < 95 && whole:
			if got, want := c.Len(), m.len(); got != want {
				return ops, fmt.Errorf("worker %d step %d: Len = %d, model %d", g, step, got, want)
			}
			if s := c.Stats(); s.Size != m.len() {
				return ops, fmt.Errorf("worker %d step %d: Stats.Size = %d, model %d", g, step, s.Size, m.len())
			}
		case op < 97 && whole:
			// Only a lone worker checks whole-container views; it runs on
			// the test goroutine, where mutatingForEach may fail the test.
			ops.add(mutatingForEach(t, c, m, g, step))
		case op < 98 && whole:
			c.Clear()
			clear(m.m)
		}
	}
	return ops, nil
}

// mutatingForEach runs one ForEach whose callback deletes every other
// visited key and inserts a fresh key, then checks that the walk saw
// exactly the entries present when it began.
func mutatingForEach(t *testing.T, c cut, m *model, g, step int) opCounts {
	want := m.entries()
	var ops opCounts
	var seen []string
	i := 0
	c.forEach(func(k string, v int) {
		if k == "" {
			t.Fatalf("worker %d step %d: ForEach visited an empty key", g, step)
		}
		seen = append(seen, fmt.Sprintf("%s=%d", k, v))
		if i%2 == 0 {
			c.del(k)
			m.del(k)
			ops.dels++
		} else {
			fresh := compositionKey(g, 200+(step+i)%96)
			c.put(fresh, -i)
			m.put(fresh, -i)
			ops.puts++
		}
		i++
	})
	slices.Sort(seen)
	if !slices.Equal(seen, want) {
		t.Fatalf("worker %d step %d: mutating ForEach visited %d entries %v, want the %d present at its start %v",
			g, step, len(seen), seen, len(want), want)
	}
	return ops
}

// swappingHash returns an adaptive Pext hash over the workers' key
// format whose re-synthesis is replaced by STLHash, so forcing drift
// moves it through two generation swaps: fallback, then recovery.
func swappingHash(t *testing.T) *sepe.AdaptiveHash {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastAdaptiveCfg()
	cfg.Synthesize = func(context.Context, []string) (sepe.AdaptiveFunction, error) {
		return stlAnyFormat{}, nil
	}
	ah, err := sepe.NewAdaptiveHash("composition", f, sepe.Pext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ah.Close)
	return ah
}

// stlAnyFormat is an AdaptiveFunction serving STLHash over a format
// that admits every key.
type stlAnyFormat struct{}

func (stlAnyFormat) Func() sepe.HashFunc { return sepe.STLHash }
func (stlAnyFormat) Matches(string) bool { return true }

// forceDrift hashes off-format keys until the hash falls back.
func forceDrift(ah *sepe.AdaptiveHash) {
	for i := 0; ah.Generation() == 1 && i < 100000; i++ {
		ah.Hash(fmt.Sprintf("user-%d@example.com", i))
	}
}

// compositionHashes are the HashFunc sources the non-adaptive
// compositions run over: STLHash, and OffXor and Aes synthesized for
// the workers' SSN key format. OffXor routes every SSN key to one
// shard; Aes runs the AES-NI kernel, or the software round under
// SEPE_NOHW=all or the purego tag.
func compositionHashes(t *testing.T) []hashSource {
	f, err := sepe.ParseRegex(`[0-9]{3}-[0-9]{2}-[0-9]{4}`)
	if err != nil {
		t.Fatal(err)
	}
	synth := func(fam sepe.Family) sepe.HashFunc {
		h, err := sepe.Synthesize(f, fam)
		if err != nil {
			t.Fatal(err)
		}
		return h.Func()
	}
	return []hashSource{{"", sepe.STLHash}, {"/offxor", synth(sepe.OffXor)}, {"/aes", synth(sepe.Aes)}}
}

// hashSource is a named HashFunc; the name suffixes the subtest's.
type hashSource struct {
	name string
	hash sepe.HashFunc
}

func TestCompositionDifferential(t *testing.T) {
	hashes := compositionHashes(t)
	for _, kind := range compositionKinds {
		for _, sharded := range []bool{false, true} {
			for _, adaptive := range []bool{false, true} {
				for _, src := range hashes {
					if adaptive && src.name != "" {
						continue // the adaptive hash is its own source
					}
					for _, observed := range []bool{false, true} {
						name := kind
						if sharded {
							name += "/sharded"
						}
						if adaptive {
							name += "/adaptive"
						}
						name += src.name
						if observed {
							name += "/observed"
						}
						t.Run(name, func(t *testing.T) {
							runComposition(t, kind, src.hash, sharded, adaptive, observed)
						})
					}
				}
			}
		}
	}
}

// checkObserved deletes one of keys from every shard they route to
// under route — a delete flushes its shard's batched counts, and the
// other shards saw no operation — then checks that c's metric blocks
// in reg, merged, report exactly ops plus those deletes and the
// container's running B-Coll.
func checkObserved(t *testing.T, c cut, reg *sepe.MetricsRegistry, route sepe.HashFunc, keys []string, ops opCounts) {
	t.Helper()
	shards := c.Shards()
	done := make([]bool, shards)
	for _, k := range keys {
		// A shard is picked by the hash's top log2(shards) bits; a
		// shift by 64 selects shard 0 of one.
		if s := route(k) >> (64 - bits.TrailingZeros(uint(shards))); !done[s] {
			done[s] = true
			c.del(k)
			ops.dels++
		}
	}
	var parts []sepe.ContainerSnapshot
	for _, cs := range reg.Snapshot().Containers {
		if cs.Name == "c" || strings.HasPrefix(cs.Name, "c.shard") {
			parts = append(parts, cs)
		}
	}
	if len(parts) != shards {
		t.Fatalf("%d metric blocks, want %d", len(parts), shards)
	}
	got := sepe.MergeContainerSnapshots("c", parts)
	if got.Puts != ops.puts || got.Gets != ops.gets || got.Deletes != ops.dels {
		t.Fatalf("observed puts/gets/deletes = %d/%d/%d, tape issued %d/%d/%d",
			got.Puts, got.Gets, got.Deletes, ops.puts, ops.gets, ops.dels)
	}
	if want := c.Stats().BucketCollisions; got.BucketCollisions != int64(want) {
		t.Fatalf("observed B-Coll = %d, Stats %d", got.BucketCollisions, want)
	}
}

// runComposition runs the differential tapes on one composition; hash
// is its source unless adaptive is set.
func runComposition(t *testing.T, kind string, hash sepe.HashFunc, sharded, adaptive, observed bool) {
	reg := sepe.NewMetricsRegistry()
	var opts []sepe.ContainerOption
	workers, shards := 1, 1
	if sharded {
		opts = append(opts, sepe.Sharded(4))
		workers, shards = 4, 4
	}
	if observed {
		opts = append(opts, sepe.Observed(reg, "c"))
	}
	var c cut
	var ah *sepe.AdaptiveHash
	route := hash // the hash that picks a key's shard
	if adaptive {
		ah = swappingHash(t)
		route = ah.Current()
		c = build(kind, ah, opts)
	} else {
		c = build(kind, route, opts)
	}
	if c.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", c.Shards(), shards)
	}

	multi := strings.HasPrefix(kind, "Multi")
	valued := strings.HasSuffix(kind, "Map")
	models := make([]*model, workers)
	counts := make([]opCounts, workers)
	errs := make([]error, workers)
	var mid func()
	if adaptive {
		mid = func() { forceDrift(ah) }
	}
	if workers == 1 {
		models[0] = &model{multi: multi, valued: valued, m: map[string][]int{}}
		counts[0], errs[0] = runTape(t, c, models[0], 0, 3000, true, mid)
	} else {
		var wg sync.WaitGroup
		for g := range workers {
			models[g] = &model{multi: multi, valued: valued, m: map[string][]int{}}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var gmid func()
				if g == 0 {
					gmid = mid
				}
				counts[g], errs[g] = runTape(t, c, models[g], g, 3000, false, gmid)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The workers' key sets are disjoint: their union is the model.
	m := &model{multi: multi, valued: valued, m: map[string][]int{}}
	var ops opCounts
	for g := range workers {
		for k, vs := range models[g].m {
			m.m[k] = vs
		}
		ops.add(counts[g])
	}
	check := func(when string) {
		t.Helper()
		if got, want := snapshotEntries(c), m.entries(); !slices.Equal(got, want) {
			t.Fatalf("%s: ForEach holds %d entries, model %d", when, len(got), len(want))
		}
		if c.Len() != m.len() || c.Stats().Size != m.len() {
			t.Fatalf("%s: Len %d, Stats.Size %d, model %d", when, c.Len(), c.Stats().Size, m.len())
		}
		sum := 0
		for _, s := range c.ShardStats() {
			sum += s.Size
		}
		if len(c.ShardStats()) != shards || sum != m.len() {
			t.Fatalf("%s: %d shard stats summing to %d, want %d summing to %d",
				when, len(c.ShardStats()), sum, shards, m.len())
		}
		if m.len() > 0 && c.LoadFactor() <= 0 {
			t.Fatalf("%s: LoadFactor %v with %d entries", when, c.LoadFactor(), m.len())
		}
	}
	check("after the tape")
	ops.add(mutatingForEach(t, c, m, 0, -1))
	check("after a mutating ForEach")

	if adaptive {
		if ah.Generation() < 2 {
			t.Fatalf("generation %d: the forced drift never swapped the hash", ah.Generation())
		}
		// Lookups tick the container: they observe keys (driving the
		// recovery), follow the recovered generation and drain the
		// migration it starts.
		r := rand.New(rand.NewPCG(7, 7))
		lookup := func() {
			k := compositionKey(r.IntN(workers), r.IntN(96))
			if got, want := c.count(k), len(m.m[k]); got != want {
				t.Fatalf("healing: count(%q) = %d, model %d", k, got, want)
			}
			ops.gets++
		}
		waitState(t, lookup, func() bool { return ah.State() == sepe.AdaptiveRecovered }, "recovery")
		for n := 0; n < 64 || c.Migrating(); n++ {
			lookup()
			if n > 1000000 {
				t.Fatal("migration never completed")
			}
		}
		check("after recovery")
	}

	if observed {
		var keys []string
		for g := range workers {
			for i := range 300 {
				keys = append(keys, compositionKey(g, i))
			}
		}
		checkObserved(t, c, reg, route, keys, ops)
	}
}

// TestForEachMutatingCallback pins the ForEach contract every
// composition shares: the callback may mutate the container, the walk
// visits exactly the entries present when it began, each once, and
// never an erased slot.
func TestForEachMutatingCallback(t *testing.T) {
	for _, opts := range [][]sepe.ContainerOption{nil, {sepe.Sharded(4)}} {
		m := sepe.NewMap[int](sepe.STLHash, opts...)
		for i := range 1000 {
			m.Put(fmt.Sprintf("key-%04d", i), i)
		}
		visits := 0
		m.ForEach(func(k string, _ int) {
			if k == "" {
				t.Fatal("ForEach visited an empty key")
			}
			visits++
			m.Delete(k)
		})
		if visits != 1000 || m.Len() != 0 {
			t.Fatalf("%d shards, deleting ForEach: %d visits, Len %d after; want 1000 and 0", m.Shards(), visits, m.Len())
		}

		for i := range 1000 {
			m.Put(fmt.Sprintf("key-%04d", i), i)
		}
		seen := map[string]int{}
		m.ForEach(func(k string, v int) {
			seen[k]++
			m.Put("new-"+k, v)
		})
		for i := range 1000 {
			if k := fmt.Sprintf("key-%04d", i); seen[k] != 1 {
				t.Fatalf("%d shards, inserting ForEach: %q visited %d times", m.Shards(), k, seen[k])
			}
		}
		if len(seen) != 1000 || m.Len() != 2000 {
			t.Fatalf("%d shards, inserting ForEach: %d distinct visits, Len %d; want 1000 and 2000", m.Shards(), len(seen), m.Len())
		}
	}
}

// TestForEachAllocsIndependentOfSize pins ForEach's copies to one
// allocation each, sized from the entry count, however many entries
// the container holds: growing them by append would allocate once per
// growth step.
func TestForEachAllocsIndependentOfSize(t *testing.T) {
	for _, opts := range [][]sepe.ContainerOption{nil, {sepe.Sharded(4)}} {
		var allocs []float64
		shards := 0
		for _, n := range []int{256, 4096} {
			m := sepe.NewMap[int](sepe.STLHash, opts...)
			shards = m.Shards()
			for i := range n {
				m.Put(fmt.Sprintf("key-%05d", i), i)
			}
			sum := 0
			allocs = append(allocs, testing.AllocsPerRun(10, func() {
				m.ForEach(func(_ string, v int) { sum += v })
			}))
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%d shards: ForEach allocates %.0f times over 256 entries, %.0f over 4096; want the same",
				shards, allocs[0], allocs[1])
		}
	}
}

// FuzzCompositionOps replays a fuzzer-chosen op tape on one
// composition against the model, sequentially, so every divergence is
// a correctness bug in routing, bucketing or batching rather than a
// race. The first byte picks the kind (bits 0–1), Sharded (bit 2) and
// Observed (bit 3), the second the shard count (1 to 16, rounded up to
// a power of two); then every two bytes are one op and the argument
// that names its key. The run ends by checking Len, every key's
// values and the ForEach contents, and, observed, the exact op counts
// and the running B-Coll.
func FuzzCompositionOps(f *testing.F) {
	r := rand.New(rand.NewPCG(3, 4))
	for b0 := range 16 {
		tape := make([]byte, 2+2*(64<<(b0%3)))
		for i := range tape {
			tape[i] = byte(r.Uint32())
		}
		tape[0] = byte(b0)
		f.Add(tape)
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 2 {
			return
		}
		tape = tape[:min(len(tape), 4096)]
		kind := compositionKinds[tape[0]%4]
		reg := sepe.NewMetricsRegistry()
		var opts []sepe.ContainerOption
		if tape[0]&4 != 0 {
			opts = append(opts, sepe.Sharded(int(tape[1]%16)+1))
		}
		observed := tape[0]&8 != 0
		if observed {
			opts = append(opts, sepe.Observed(reg, "c"))
		}
		c := build(kind, sepe.STLHash, opts)
		m := &model{multi: strings.HasPrefix(kind, "Multi"), valued: strings.HasSuffix(kind, "Map"), m: map[string][]int{}}
		keyOf := func(arg int) string { return compositionKey(0, arg%48) }
		// batch is the 1–8 keys of a batch op, stepping through the key
		// space from arg's key.
		batch := func(arg int) []string {
			keys := make([]string, 1+arg%8)
			for i := range keys {
				keys[i] = keyOf(arg + 7*i)
			}
			return keys
		}
		var ops opCounts
		for step := 0; 2*step+3 < len(tape); step++ {
			op, arg := tape[2+2*step]%12, int(tape[3+2*step])
			k := keyOf(arg)
			switch op {
			case 0, 1, 2:
				if got, want := c.put(k, step), m.put(k, step); got != want {
					t.Fatalf("step %d: put(%q) new=%v, model %v", step, k, got, want)
				}
				ops.puts++
			case 3:
				got, want := c.values(k), m.m[k]
				if m.multi {
					got, want = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: values(%q) = %v, model %v", step, k, got, want)
				}
				ops.gets++
			case 4:
				if got, want := c.count(k), len(m.m[k]); got != want {
					t.Fatalf("step %d: count(%q) = %d, model %d", step, k, got, want)
				}
				ops.gets++
			case 5, 6:
				if got, want := c.del(k), m.del(k); got != want {
					t.Fatalf("step %d: del(%q) = %d, model %d", step, k, got, want)
				}
				ops.dels++
			case 7:
				if got, want := c.Len(), m.len(); got != want || c.Stats().Size != want {
					t.Fatalf("step %d: Len %d, Stats.Size %d, model %d", step, got, c.Stats().Size, want)
				}
			case 8:
				keys := batch(arg)
				vals := make([]int, len(keys))
				for i := range keys {
					vals[i] = step*100 + i
					m.put(keys[i], vals[i])
				}
				c.putBatch(keys, vals)
				ops.puts += uint64(len(keys))
			case 9:
				keys := batch(arg)
				for i, found := range c.hasBatch(keys) {
					if want := len(m.m[keys[i]]) > 0; found != want {
						t.Fatalf("step %d: batch lookup %q = %v, model %v", step, keys[i], found, want)
					}
				}
				ops.gets += uint64(len(keys))
			case 10:
				c.Reserve(arg)
			case 11:
				if arg < 16 { // keep Clear rare so tables grow
					c.Clear()
					clear(m.m)
				}
			}
		}
		if got, want := c.Len(), m.len(); got != want {
			t.Fatalf("final Len = %d, model %d", got, want)
		}
		for k, want := range m.m {
			if got := c.values(k); !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))) {
				t.Fatalf("final values(%q) = %v, model %v", k, got, want)
			}
			ops.gets++
		}
		if got, want := snapshotEntries(c), m.entries(); !slices.Equal(got, want) {
			t.Fatalf("final ForEach holds %v, model %v", got, want)
		}
		if observed {
			keys := make([]string, 48)
			for i := range keys {
				keys[i] = keyOf(i)
			}
			checkObserved(t, c, reg, sepe.STLHash, keys, ops)
		}
	})
}
