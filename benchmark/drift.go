package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/rng"
)

// driftBench is table-drift: one unkeyed adaptive hash, and per cycle
// a fresh sharded adaptive map that one goroutine fills with keys of
// the hash's current format before the stream switches to the next
// format. Drift detection, re-synthesis and incremental migration do
// the work; no other workload reaches them. Every cycle rebuilds the
// table at the same size because heal time grows with the table. One
// goroutine, not one per vCPU, leaves a vCPU to the re-synthesis the
// heal runs in the background; with two, the run-to-run spread of
// ops_per_s was twice as wide at the same throughput.
type driftBench struct {
	build, drift [][]string // per format in driftFormats
	driftOps     int        // operations in one drift phase
	ladder       []ladderTable

	hash   *sepe.AdaptiveHash
	cycle  int
	bcolls []float64
	chk    checker
}

// driftFormats is the order the stream moves through; consecutive
// formats differ in length, so every switch is a drift.
var driftFormats = []keys.Type{keys.IPv4, keys.MAC, keys.IPv6, keys.SSN}

const (
	driftBatch = 64
	// healTimeout bounds one drift episode; the library's default
	// attempt timeout is 10s, so a heal slower than this is stuck.
	healTimeout = 30 * time.Second
)

func newDriftBench(seed uint64, scale float64) (*driftBench, error) {
	n := scaled(64<<10, scale, 1024) &^ 1
	b := &driftBench{driftOps: scaled(64<<10, scale, 16384)}
	for _, t := range driftFormats {
		// A drift phase puts on every second operation and may run to
		// twice the fixed operation count while a heal finishes.
		pool := keys.NewGenerator(t, keys.Uniform, seed).Distinct(n + b.driftOps)
		b.build = append(b.build, pool[:n])
		b.drift = append(b.drift, pool[n:])
		f, err := sepe.ParseRegex(t.Regex())
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", t, err)
		}
		h, err := sepe.Synthesize(f, sepe.Pext)
		if err != nil {
			return nil, fmt.Errorf("synthesize %s: %w", t, err)
		}
		res, miss := splitPool(pool)
		b.ladder = append(b.ladder, ladderTable{name: t.Name() + "/Pext", hash: h, res: res, miss: miss})
	}
	return b, nil
}

func (b *driftBench) setup(tr *tracer) error {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	f, err := parseFormat(tr, root, driftFormats[0].Regex())
	if err != nil {
		return fmt.Errorf("parse %s: %w", driftFormats[0], err)
	}
	h, err := newAdaptiveHash(tr, root, "drift", f, sepe.NewMetricsRegistry())
	if err != nil {
		return err
	}
	b.hash, b.cycle = h, 0
	id := tr.begin("container.fill", root)
	fill([]*sepe.ShardedAdaptiveMap[int]{newAdaptiveShardedMap(h)}, b.build[:1], &b.chk)
	tr.end(id)
	return nil
}

func (b *driftBench) teardown() { b.hash.Close() }

// measure runs whole cycles until d has passed. Each phase of a cycle
// is a window whose slot is the phase and the cycle's format: the four
// drifts cost different amounts, and a build costs less than a drift.
func (b *driftBench) measure(d time.Duration, tr *tracer) (*stats, error) {
	st := &stats{}
	root := tr.begin("measure", 0)
	defer tr.end(root)
	start := time.Now()
	for b.runCycle(st, tr, root) && time.Since(start) < d {
	}
	return st, nil
}

// runCycle builds a fresh map in the current format, drifts the stream
// to the next format and checks the map after the heal. It reports
// false once a cycle fails to heal. Each cycle starts with a full
// collection, so it does not pay for collecting the previous cycle's
// map: that garbage comes from the harness rebuilding the table, and
// collecting it inside the timed phases doubled their spread.
func (b *driftBench) runCycle(st *stats, tr *tracer, root int32) bool {
	cur, next := b.cycle%len(driftFormats), (b.cycle+1)%len(driftFormats)
	b.cycle++
	runtime.GC()
	cycleID := tr.begin("drift.cycle", root)
	defer tr.end(cycleID)
	m := newAdaptiveShardedMap(b.hash)

	id := tr.begin("drift.build", cycleID)
	build := b.build[cur]
	rec := recorder{slot: 2 * cur}
	var tl tally
	t0 := time.Now()
	for i, tick := 0, 1; i < len(build); tick++ {
		end := min(i+driftBatch, len(build))
		for j := i; j < end; j++ {
			tl.check(m.Put(build[j], j))
		}
		t1 := time.Now()
		rec.record(t0, t1, int64(end-i))
		if tick%64 == 0 {
			tr.add("batch", id, t0, t1)
		}
		t0, i = t1, end
	}
	tr.end(id)
	st.windows = append(st.windows, nonEmpty(rec.wins)...)
	b.bcolls = append(b.bcolls, bcollRatio([]*sepe.ShardedAdaptiveMap[int]{m}))
	for i, k := range build {
		v, ok := m.Get(k)
		tl.check(ok && v == i)
	}
	b.chk.add(tl.attempted, tl.failed)

	id = tr.begin("drift.drift", cycleID)
	drift := b.drift[next]
	h, ok, puts := b.drifted(m, drift, 2*cur+1, st, tr, id)
	tr.end(id)
	if !ok {
		b.chk.fail("drift: cycle %d (%s to %s) did not heal within %v", b.cycle, driftFormats[cur], driftFormats[next], healTimeout)
		return false
	}
	st.heals = append(st.heals, h)
	healID := tr.add("adaptive.heal", id, h.start, h.start.Add(h.total()))
	tr.add("adaptive.detect", healID, h.start, h.start.Add(h.detect))
	tr.add("adaptive.resynth", healID, h.start.Add(h.detect), h.start.Add(h.detect+h.resynth))
	tr.add("adaptive.migrate", healID, h.start.Add(h.detect+h.resynth), h.start.Add(h.total()))

	// The map now hashes with the next format's function: check the
	// entry count, every drifted key, and only a few build keys, since
	// the drift monitor samples off-format Gets too.
	tl = tally{}
	tl.check(m.Len() == len(build)+puts)
	for i, k := range drift[:puts] {
		v, ok := m.Get(k)
		tl.check(ok && v == i)
	}
	for i := 0; i < len(build); i += len(build)/64 + 1 {
		v, ok := m.Get(build[i])
		tl.check(ok && v == i)
	}
	b.chk.add(tl.attempted, tl.failed)
	return true
}

// drifted runs the drift phase on m, recording its batches in slot: it
// alternates Puts of new keys with Gets of keys it already put, for
// driftOps operations and until the heal has finished, timing the heal
// from the phase start. It returns the heal, whether it finished, and
// how many keys it put.
func (b *driftBench) drifted(m *sepe.ShardedAdaptiveMap[int], keys []string, slot int, st *stats, tr *tracer, parent int32) (heal, bool, int) {
	var (
		h                   = heal{start: time.Now()}
		rec                 = recorder{slot: slot}
		tl                  tally
		migrate             hist
		detected, recovered time.Time
		healed, pinned      bool
		n                   int // keys put
	)
	gen0 := b.hash.Generation()
	snap0 := b.hash.Metrics().Snapshot()
	r := rng.New(uint64(b.cycle))
	t0 := h.start
	for ops, tick := 0, 1; ; tick++ {
		for j := 0; j < driftBatch; j++ {
			if j%2 == 0 && n < len(keys) {
				tl.check(m.Put(keys[n], n))
				n++
			} else {
				i := r.Intn(n)
				v, ok := m.Get(keys[i])
				tl.check(ok && v == i)
			}
		}
		ops += driftBatch
		t1 := time.Now()
		rec.record(t0, t1, driftBatch)
		if tick%64 == 0 {
			tr.add("batch", parent, t0, t1)
		}
		switch {
		case healed:
		case detected.IsZero():
			if b.hash.Generation() != gen0 {
				detected = t1
			}
		case recovered.IsZero():
			if m.Migrating() {
				migrate.record(t1.Sub(t0) / driftBatch)
			}
			s := b.hash.Metrics().Snapshot()
			if b.hash.State() == sepe.AdaptivePinned {
				pinned = true
			} else if b.hash.State() == sepe.AdaptiveRecovered && s.ResynthSuccesses > snap0.ResynthSuccesses {
				recovered = t1
				h.attempts = s.ResynthAttempts - snap0.ResynthAttempts
			}
		default:
			// At least one whole batch has run since the promotion, so
			// the map has begun migrating to the new function.
			if m.Migrating() {
				migrate.record(t1.Sub(t0) / driftBatch)
			} else {
				h.detect = detected.Sub(h.start)
				h.resynth = recovered.Sub(detected)
				h.migrate = t1.Sub(recovered)
				healed = true
			}
		}
		t0 = t1
		if ops >= b.driftOps && healed || pinned || t1.Sub(h.start) > healTimeout {
			break
		}
	}
	b.chk.add(tl.attempted, tl.failed)
	st.windows = append(st.windows, nonEmpty(rec.wins)...)
	st.migrateOp.merge(&migrate)
	return h, healed, n
}

func (b *driftBench) bcoll() float64 { return median(append([]float64(nil), b.bcolls...)) }

func (b *driftBench) rssPID() int { return 0 }

func (b *driftBench) ladderTables() []ladderTable { return b.ladder }

func (b *driftBench) checker() *checker { return &b.chk }
