package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/rng"
)

// The layer pass of a traced run measures each layer through its own
// public calls, on the workload's seed and keys, so every traced run
// reports the same per-layer metrics:
//
//   - a set-up probe times parsing, synthesis and plan export;
//   - the ladder replays one tape through each rung alone on one
//     goroutine: Hash, Map, ShardedMap, then the observed and adaptive
//     variants; a rung's self time is its ns/op minus the rung below;
//   - the heal and serving metrics come from the workload's own traced
//     loop when it has them, and otherwise from a short drift or serve
//     probe built from the table-drift and serve-hash code.

// ladderTable is one synthesized function with disjoint resident and
// miss keys of its format.
type ladderTable struct {
	name      string
	hash      *sepe.Hash
	res, miss []string
}

// splitPool cuts a key pool into at most 16Ki resident and 1Ki miss
// keys: every rung's tables are alive at once.
func splitPool(pool []string) (res, miss []string) {
	r := min(len(pool)/2, 16<<10)
	m := min(len(pool)-r, 1<<10)
	return pool[:r], pool[r : r+m]
}

func layerPass(b bench, st *stats, tr *tracer, o *options) (map[string]float64, error) {
	out := map[string]float64{}
	if err := setupProbe(tr, out); err != nil {
		return nil, err
	}
	if err := ladder(b.ladderTables(), o, tr, b.checker(), out); err != nil {
		return nil, err
	}

	heals, migrateOp := st.heals, &st.migrateOp
	if len(heals) == 0 {
		id := tr.begin("probe.drift", 0)
		p, err := newDriftBench(o.seed, o.scale/4)
		if err != nil {
			return nil, err
		}
		if err := p.setup(nil); err != nil {
			return nil, err
		}
		ps := &stats{}
		for len(ps.heals) < 3 && p.runCycle(ps, tr, id) {
		}
		p.teardown()
		tr.end(id)
		heals, migrateOp = ps.heals, &ps.migrateOp
		b.checker().merge(&p.chk)
	}
	if len(heals) == 0 {
		return nil, fmt.Errorf("no drift episode healed")
	}
	var detect, resynth, migrate, total, attempts []float64
	for _, h := range heals {
		detect = append(detect, ms(h.detect))
		resynth = append(resynth, ms(h.resynth))
		migrate = append(migrate, ms(h.migrate))
		total = append(total, ms(h.total()))
		attempts = append(attempts, float64(h.attempts))
	}
	out["adaptive.detect_ms"] = median(detect)
	out["adaptive.resynth_ms"] = median(resynth)
	out["adaptive.migrate_ms"] = median(migrate)
	out["adaptive.heal_ms"] = median(total)
	out["adaptive.migrate_op_ns"] = migrateOp.quantile(0.5)
	out["adaptive.attempts_per_heal"] = mean(attempts)

	sb, ok := b.(*serveBench)
	sd := st.serve
	if !ok {
		id := tr.begin("probe.serve", 0)
		p, err := newServeBench(o.seed, o.scale/4, o.sepeserve)
		if err != nil {
			return nil, err
		}
		if err := p.setup(tr); err != nil {
			return nil, err
		}
		ps, err := p.measure(min(time.Second, time.Duration(o.seconds*float64(time.Second))/5), tr)
		p.teardown()
		tr.end(id)
		if err != nil {
			return nil, err
		}
		sb, sd = p, ps.serve
		b.checker().merge(&p.chk)
	}
	out["sepeserve.register_ms"] = median(sb.registerMs)
	out["sepeserve.import_ms"] = median(sb.importMs)
	out["sepeserve.ttfb_us"] = median(sd.ttfbUs)
	out["sepeserve.body_us"] = median(sd.bodyUs)
	out["bench.client_us"] = median(sd.clientUs)
	out["sepeserve.req_bytes_per_key"] = float64(sd.reqBytes) / float64(sd.keys)
	out["sepeserve.resp_bytes_per_key"] = float64(sd.respBytes) / float64(sd.keys)
	out["sepeserve.hash_share"] = median(sd.hashShares)
	return out, nil
}

// setupProbe times the set-up calls of the rex, core and wire layers
// over the RQ formats and families, five rounds, per call.
func setupProbe(tr *tracer, out map[string]float64) error {
	id := tr.begin("probe.setup", 0)
	defer tr.end(id)
	var parse, synth, export []float64
	for round := 0; round < 5; round++ {
		for _, t := range keys.All {
			t0 := time.Now()
			f, err := parseFormat(tr, id, t.Regex())
			if err != nil {
				return err
			}
			parse = append(parse, us(time.Since(t0)))
			for _, fam := range sepe.Families {
				t0 := time.Now()
				h, err := synthesize(tr, id, f, fam)
				if err != nil {
					return err
				}
				synth = append(synth, us(time.Since(t0)))
				t0 = time.Now()
				if _, err := h.ExportPlan(); err != nil {
					return err
				}
				export = append(export, us(time.Since(t0)))
			}
		}
	}
	out["rex.parse_us"] = median(parse)
	out["core.synth_us"] = median(synth)
	out["wire.export_us"] = median(export)
	return nil
}

// ladderRounds is how many times each rung is timed. The rungs take
// turns, one replay per round, so a slow stretch of the machine lands
// on every rung instead of on the one that happened to be running.
const ladderRounds = 5

// ladder replays one tape through each rung and records rung ns/op,
// self times and the container counters.
func ladder(tabs []ladderTable, o *options, tr *tracer, chk *checker, out map[string]float64) error {
	root := tr.begin("ladder", 0)
	defer tr.end(root)
	res := make([][]string, len(tabs))
	miss := make([][]string, len(tabs))
	hashes := make([]func(string) uint64, len(tabs))
	adaptiveHashes := make([]func(string) uint64, len(tabs))
	plain := make([]*sepe.Map[int], len(tabs))
	sharded := make([]*sepe.ShardedMap[int], len(tabs))
	observed := make([]*sepe.ShardedMap[int], len(tabs))
	adaptiveMaps := make([]*sepe.ShardedAdaptiveMap[int], len(tabs))
	monitors := make([]*sepe.DriftMonitor, len(tabs))
	reg := sepe.NewMetricsRegistry()
	for i, t := range tabs {
		a, err := newAdaptiveHash(tr, root, "ladder."+t.name, t.hash.Format(), reg)
		if err != nil {
			return err
		}
		defer a.Close()
		res[i], miss[i] = t.res, t.miss
		hashes[i], adaptiveHashes[i] = t.hash.Hash, a.Hash
		plain[i] = newPlainMap(t.hash)
		sharded[i] = newShardedMap(t.hash)
		observed[i] = newObservedShardedMap(t.hash, reg, "ladder."+t.name)
		adaptiveMaps[i] = newAdaptiveShardedMap(a)
		monitors[i] = reg.NewDrift("ladder.observe."+t.name, t.hash.Format().Matches, sepe.DriftConfig{SampleEvery: 1})
	}
	tape := makeTape(rng.New(o.seed^0x1add), lens(res), lens(miss), scaled(1<<20, o.scale, 4096))
	filled := func(tables []table) *replayer {
		fill(tables, res, chk)
		return &replayer{tabs: tables, res: res, miss: miss, shadow: newShadow(res)}
	}
	rPlain := filled(asTables(plain))
	rSharded := filled(asTables(sharded))
	rObserved := filled(asTables(observed))
	rAdaptive := filled(asTables(adaptiveMaps))

	var maxChain int
	var load, imbalance float64
	for i := range tabs {
		maxChain = max(maxChain, plain[i].Stats().MaxBucketLen)
		load += plain[i].LoadFactor() / float64(len(tabs))
		var most, total int
		for _, s := range sharded[i].ShardStats() {
			most = max(most, s.Size)
			total += s.Size
		}
		imbalance += float64(most) * float64(sharded[i].Shards()) / float64(total) / float64(len(tabs))
	}

	rungs := []struct {
		name string
		run  func() int64 // one pass; returns the operations made
	}{
		{"hash", func() int64 { return hashPass(hashes, res, miss, tape) }},
		{"map", func() int64 { return rPlain.replay(tape, 0, 1) }},
		{"sharded", func() int64 { return rSharded.replay(tape, 0, 1) }},
		{"sharded-contended", func() int64 { return contended(rSharded, tape, chk) }},
		{"observed", func() int64 { return rObserved.replay(tape, 0, 1) }},
		{"adaptive-hash", func() int64 { return hashPass(adaptiveHashes, res, miss, tape) }},
		{"adaptive-map", func() int64 { return rAdaptive.replay(tape, 0, 1) }},
		{"hashbatch", func() int64 { return hashBatchPass(tabs, len(tape)) }},
		{"observe", func() int64 { return observePass(monitors, res, miss, tape) }},
	}
	ns := make(map[string][]float64, len(rungs))
	for round := 0; round < ladderRounds; round++ {
		for _, r := range rungs {
			id := tr.begin("ladder."+r.name, root)
			t0 := time.Now()
			n := r.run()
			ns[r.name] = append(ns[r.name], float64(time.Since(t0))/float64(n))
			tr.end(id)
		}
	}
	for _, r := range []*replayer{rPlain, rSharded, rObserved, rAdaptive} {
		chk.add(r.attempted, r.failed)
	}
	rung := func(name string) float64 { return median(ns[name]) }

	id := tr.begin("ladder.ops", root)
	opsPass(tabs, len(tape), chk, out)
	tr.end(id)

	out["core.hash_ns"] = rung("hash")
	out["core.hashbatch_ns_per_key"] = rung("hashbatch")
	out["container.self_ns"] = rung("map") - rung("hash")
	out["container.max_chain"] = float64(maxChain)
	out["container.load_factor"] = load
	out["shard.self_ns"] = rung("sharded") - rung("map")
	out["shard.wait_ns"] = rung("sharded-contended") - rung("sharded")
	out["shard.imbalance"] = imbalance
	out["telemetry.hook_ns"] = rung("observed") - rung("sharded")
	out["telemetry.observe_ns"] = rung("observe")
	out["adaptive.hash_self_ns"] = rung("adaptive-hash") - rung("hash")
	out["adaptive.tick_ns"] = rung("adaptive-map") - rung("sharded")
	return nil
}

var sink uint64

// hashPass hashes the key of every tape operation, twice for an
// insert+Delete, as the container rungs do.
func hashPass(hashes []func(string) uint64, res, miss [][]string, tape []uint32) int64 {
	var s uint64
	var calls int64
	for _, op := range tape {
		t, kind, i := unpackOp(op)
		switch kind {
		case opGet, opUpdate:
			s += hashes[t](res[t][i])
			calls++
		case opMiss:
			s += hashes[t](miss[t][i])
			calls++
		default:
			s += hashes[t](miss[t][i]) ^ hashes[t](miss[t][i])<<1
			calls += 2
		}
	}
	sink += s
	return calls
}

// contended replays the tape from two goroutines on the tables and
// shadow of r, each taking the operations of its half of the keys. It
// returns the operations per goroutine, so the caller's ns/op is the
// per-goroutine cost.
func contended(r *replayer, tape []uint32, chk *checker) int64 {
	var (
		wg    sync.WaitGroup
		calls [workers]int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rw := replayer{tabs: r.tabs, res: r.res, miss: r.miss, shadow: r.shadow, next: r.next + w<<40}
			calls[w] = rw.replay(tape, w, workers)
			chk.add(rw.attempted, rw.failed)
		}(w)
	}
	wg.Wait()
	var sum int64
	for _, c := range calls {
		sum += c
	}
	return sum / workers
}

// hashBatchPass hashes the resident keys in 64-key batches until at
// least n keys are hashed.
func hashBatchPass(tabs []ladderTable, n int) int64 {
	out := make([]uint64, 64)
	var keys int64
	for keys < int64(n) {
		for _, t := range tabs {
			for i := 0; i+64 <= len(t.res); i += 64 {
				t.hash.HashBatch(t.res[i:i+64], out)
				keys += 64
			}
		}
	}
	sink += out[0]
	return keys
}

// observePass feeds the key of every tape operation to its table's
// drift monitor.
func observePass(monitors []*sepe.DriftMonitor, res, miss [][]string, tape []uint32) int64 {
	for _, op := range tape {
		t, kind, i := unpackOp(op)
		if kind == opGet || kind == opUpdate {
			monitors[t].Observe(res[t][i])
		} else {
			monitors[t].Observe(miss[t][i])
		}
	}
	return int64(len(tape))
}

// opsPass fills fresh maps from empty, counting the Puts that grew the
// table, then times update Puts, Gets and Deletes of every resident
// key separately.
func opsPass(tabs []ladderTable, n int, chk *checker, out map[string]float64) {
	var (
		tl                     tally
		grows, resident        int
		growNs                 time.Duration
		putNs, getNs, deleteNs time.Duration
		maps                   = make([]*sepe.Map[int], len(tabs))
	)
	for i, t := range tabs {
		m := newPlainMap(t.hash)
		for j, k := range t.res {
			lf := m.LoadFactor()
			t0 := time.Now()
			tl.check(m.Put(k, j))
			d := time.Since(t0)
			if m.LoadFactor() < lf {
				grows++
				growNs += d
			}
		}
		maps[i] = m
		resident += len(t.res)
	}
	rounds := (n + resident - 1) / resident
	for r := 0; r < rounds; r++ {
		for i, t := range tabs {
			m := maps[i]
			t0 := time.Now()
			for j, k := range t.res {
				tl.check(!m.Put(k, j))
			}
			t1 := time.Now()
			for j, k := range t.res {
				v, ok := m.Get(k)
				tl.check(ok && v == j)
			}
			t2 := time.Now()
			for _, k := range t.res {
				tl.check(m.Delete(k) == 1)
			}
			t3 := time.Now()
			putNs += t1.Sub(t0)
			getNs += t2.Sub(t1)
			deleteNs += t3.Sub(t2)
			for j, k := range t.res {
				tl.check(m.Put(k, j))
			}
		}
	}
	total := rounds * resident
	chk.add(tl.attempted, tl.failed)
	out["container.grow_events"] = float64(grows)
	out["container.grow_ms"] = ms(growNs)
	out["container.put_ns"] = float64(putNs) / float64(total)
	out["container.get_ns"] = float64(getNs) / float64(total)
	out["container.delete_ns"] = float64(deleteNs) / float64(total)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
