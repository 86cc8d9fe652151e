package sepe_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/sepe-go/sepe"
)

// The composition differential test drives every container the four
// constructors can build — 4 kinds × {single-owner, Sharded(4)} ×
// {HashFunc, *AdaptiveHash} × {plain, Observed} — with seeded op tapes
// and compares every answer with a Go map model. Adaptive compositions
// swap hash generations mid-tape (forced drift, then an injected
// re-synthesis); sharded ones run four goroutines on disjoint keys, so
// under -race the tape doubles as a concurrency probe; observed ones
// must report exactly the operations the tape issued.

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
	cfg.Synthesize = func(context.Context, []string) (func(string) uint64, func(string) bool, error) {
		return sepe.STLHash, func(string) bool { return true }, nil
	}
	ah, err := sepe.NewAdaptiveHash("composition", f, sepe.Pext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ah.Close)
	return ah
}

// forceDrift hashes off-format keys until the hash falls back.
func forceDrift(ah *sepe.AdaptiveHash) {
	for i := 0; ah.Generation() == 1 && i < 100000; i++ {
		ah.Hash(fmt.Sprintf("user-%d@example.com", i))
	}
}

func TestCompositionDifferential(t *testing.T) {
	for _, kind := range compositionKinds {
		for _, sharded := range []bool{false, true} {
			for _, adaptive := range []bool{false, true} {
				for _, observed := range []bool{false, true} {
					name := kind
					if sharded {
						name += "/sharded"
					}
					if adaptive {
						name += "/adaptive"
					}
					if observed {
						name += "/observed"
					}
					t.Run(name, func(t *testing.T) {
						runComposition(t, kind, sharded, adaptive, observed)
					})
				}
			}
		}
	}
}

func runComposition(t *testing.T, kind string, sharded, adaptive, observed bool) {
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
	route := sepe.STLHash // the hash that picks a key's shard
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
		// A delete flushes its shard's batched counts: delete one key
		// of every shard the tapes' keys route to (the others saw no
		// operation), so every shard's counts are exact.
		done := make([]bool, shards)
		for g := range workers {
			for i := range 300 {
				k, s := compositionKey(g, i), 0
				if shards > 1 {
					s = int(route(k) >> 62)
				}
				if !done[s] {
					done[s] = true
					c.del(k)
					ops.dels++
				}
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
