package main

import (
	"fmt"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
)

// coldBench is table-cold: the paper's Batched mode at memory-resident
// scale. Observed sharded maps, one Pext table per RQ format, are
// filled from empty, searched and erased by two goroutines, each over
// its own half of the keys. Cache misses, growth rehashes, shard locks
// and telemetry hooks dominate; bucket-index arithmetic is noise here.
type coldBench struct {
	pools [][]string // per format; worker w owns the keys at odd or even index

	hashes []*sepe.Hash
	maps   []*sepe.ShardedMap[int]
	bcolls []float64
	chk    checker
}

const coldBatch = 64

const (
	coldFill = iota
	coldSearch
	coldErase
)

var coldPhaseNames = []string{"cold.fill", "cold.search", "cold.erase"}

func newColdBench(seed uint64, scale float64) *coldBench {
	per := scaled(2<<20, scale, 8*256) / len(keys.All) &^ 1
	b := &coldBench{}
	for _, t := range keys.All {
		b.pools = append(b.pools, keys.NewGenerator(t, keys.Uniform, seed).Distinct(per))
	}
	return b
}

func (b *coldBench) setup(tr *tracer) error {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	reg := sepe.NewMetricsRegistry()
	b.hashes, b.maps = nil, nil
	for _, t := range keys.All {
		f, err := parseFormat(tr, root, t.Regex())
		if err != nil {
			return fmt.Errorf("parse %s: %w", t, err)
		}
		h, err := synthesize(tr, root, f, sepe.Pext)
		if err != nil {
			return fmt.Errorf("synthesize %s: %w", t, err)
		}
		b.hashes = append(b.hashes, h)
		b.maps = append(b.maps, newObservedShardedMap(h, reg, "cold."+t.Name()))
	}
	return nil
}

func (b *coldBench) teardown() {}

// positions is the number of keys each worker owns.
func (b *coldBench) positions() int { return len(b.pools) * (len(b.pools[0]) / workers) }

// key returns worker w's i-th key and its value: positions rotate over
// the tables so every batch spreads across all of them.
func (b *coldBench) key(w, i int) (int, string, int) {
	t := i % len(b.pools)
	idx := workers*(i/len(b.pools)) + w
	return t, b.pools[t][idx], idx
}

// measure runs fill/search/erase cycles until d has passed. A phase
// the deadline interrupts is completed untimed by cleanup, so the maps
// are empty again when measure returns.
func (b *coldBench) measure(d time.Duration, tr *tracer) (*stats, error) {
	st := &stats{}
	root := tr.begin("measure", 0)
	defer tr.end(root)
	deadline := time.Now().Add(d)
	for {
		var cycle []window
		for phase := coldFill; phase <= coldErase; phase++ {
			wins, progress := b.phase(phase, deadline, tr, root)
			cycle = append(cycle, wins...)
			for _, p := range progress {
				if p < b.positions() {
					b.cleanup(phase, progress)
					b.checkEmpty()
					// The interrupted segment did less work than its slot
					// does in a whole cycle; a partial cycle counts only
					// when no cycle completed.
					if len(st.windows) == 0 {
						st.windows = cycle
					}
					return st, nil
				}
			}
			if phase == coldFill {
				b.bcolls = append(b.bcolls, bcollRatio(b.maps))
			}
		}
		st.windows = append(st.windows, cycle...)
		b.checkEmpty()
	}
}

// coldSegments is how many windows a phase is cut into, by key
// position, so that one window covers the same keys in every cycle.
const coldSegments = 8

// phase runs one phase on both workers and returns its windows and how
// far each worker got.
func (b *coldBench) phase(phase int, deadline time.Time, tr *tracer, root int32) ([]window, [workers]int) {
	id := tr.begin(coldPhaseNames[phase], root)
	defer tr.end(id)
	var progress [workers]int
	wins := parallel(0, &b.chk, func(w int, rec *recorder, tl *tally) {
		n, i := b.positions(), 0
		t0 := time.Now()
		for tick := 1; i < n; tick++ {
			batch := min(coldBatch, n-i)
			rec.slot = phase*coldSegments + i*coldSegments/n
			for end := i + batch; i < end; i++ {
				t, k, v := b.key(w, i)
				m := b.maps[t]
				switch phase {
				case coldFill:
					tl.check(m.Put(k, v))
				case coldSearch:
					got, ok := m.Get(k)
					tl.check(ok && got == v)
				default:
					tl.check(m.Delete(k) == 1)
				}
			}
			t1 := time.Now()
			rec.record(t0, t1, int64(batch))
			if tick%64 == 0 {
				tr.add("batch", id, t0, t1)
			}
			t0 = t1
			if !t1.Before(deadline) {
				break
			}
		}
		progress[w] = i
	})
	return wins, progress
}

// cleanup deletes, untimed, every key an interrupted phase left stored.
func (b *coldBench) cleanup(phase int, progress [workers]int) {
	var tl tally
	for w := 0; w < workers; w++ {
		lo, hi := 0, b.positions()
		switch phase {
		case coldFill:
			hi = progress[w]
		case coldErase:
			lo = progress[w]
		}
		for i := lo; i < hi; i++ {
			t, k, _ := b.key(w, i)
			tl.check(b.maps[t].Delete(k) == 1)
		}
	}
	b.chk.add(tl.attempted, tl.failed)
}

// checkEmpty verifies that a finished cycle lost and kept nothing.
func (b *coldBench) checkEmpty() {
	for t, m := range b.maps {
		if n := m.Len(); n != 0 {
			b.chk.fail("cold: table %s holds %d entries after erase", keys.All[t], n)
		}
	}
}

func (b *coldBench) bcoll() float64 { return median(append([]float64(nil), b.bcolls...)) }

func (b *coldBench) rssPID() int { return 0 }

func (b *coldBench) ladderTables() []ladderTable {
	var out []ladderTable
	for i, h := range b.hashes {
		res, miss := splitPool(b.pools[i])
		out = append(out, ladderTable{name: keys.All[i].Name() + "/Pext", hash: h, res: res, miss: miss})
	}
	return out
}

func (b *coldBench) checker() *checker { return &b.chk }
