package main

import (
	"fmt"
	"time"

	"github.com/sepe-go/sepe"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/rng"
)

// hotBench is table-hot: the paper's RQ1 benchmark loop. One plain Map
// per (RQ format, family) pair holds a small resident set drawn from
// the normal distribution, and one caller replays a mixed tape. The
// working set stays cache-resident and nothing contends, so hashing,
// bucket indexing and the chain probe do nearly all the work.
type hotBench struct {
	res, miss [][]string // per table
	tape      []uint32
	cursor    int

	hashes []*sepe.Hash
	maps   []*sepe.Map[int]
	rep    replayer
	chk    checker
}

const hotBatch = 64 // tape operations per timed batch

func newHotBench(seed uint64, scale float64) *hotBench {
	resident := scaled(1024, scale, 64)
	b := &hotBench{}
	for _, t := range keys.All {
		pool := keys.NewGenerator(t, keys.Normal, seed).Distinct(2 * resident)
		for range sepe.Families {
			b.res = append(b.res, pool[:resident])
			b.miss = append(b.miss, pool[resident:])
		}
	}
	b.tape = makeTape(rng.New(seed), lens(b.res), lens(b.miss), scaled(1<<20, scale, 4096))
	return b
}

func (b *hotBench) setup(tr *tracer) error {
	root := tr.begin("setup", 0)
	defer tr.end(root)
	b.hashes, b.maps = nil, nil
	for _, t := range keys.All {
		f, err := parseFormat(tr, root, t.Regex())
		if err != nil {
			return fmt.Errorf("parse %s: %w", t, err)
		}
		for _, fam := range sepe.Families {
			h, err := synthesize(tr, root, f, fam)
			if err != nil {
				return fmt.Errorf("synthesize %s/%s: %w", t, fam, err)
			}
			b.hashes = append(b.hashes, h)
			b.maps = append(b.maps, newPlainMap(h))
		}
	}
	id := tr.begin("container.fill", root)
	fill(b.maps, b.res, &b.chk)
	tr.end(id)
	b.rep = replayer{tabs: asTables(b.maps), res: b.res, miss: b.miss, shadow: newShadow(b.res)}
	return nil
}

func (b *hotBench) teardown() {}

func (b *hotBench) measure(d time.Duration, tr *tracer) (*stats, error) {
	root := tr.begin("measure", 0)
	defer tr.end(root)
	r := &b.rep
	start := time.Now()
	rec := recorder{start: start, span: windowSpan}
	deadline := start.Add(d)
	t0 := start
	for batch := 0; ; batch++ {
		calls := 0
		for j := 0; j < hotBatch; j++ {
			calls += r.step(b.tape[b.cursor])
			if b.cursor++; b.cursor == len(b.tape) {
				b.cursor = 0
			}
		}
		t1 := time.Now()
		rec.record(t0, t1, int64(calls))
		if batch%64 == 0 {
			tr.add("batch", root, t0, t1)
		}
		t0 = t1
		if !t1.Before(deadline) {
			break
		}
	}
	b.chk.add(r.attempted, r.failed)
	r.tally = tally{}
	return &stats{windows: nonEmpty(rec.wins)}, nil
}

func (b *hotBench) bcoll() float64 { return bcollRatio(b.maps) }

func (b *hotBench) rssPID() int { return 0 }

func (b *hotBench) ladderTables() []ladderTable {
	var out []ladderTable
	for i, h := range b.hashes {
		name := keys.All[i/len(sepe.Families)].Name() + "/" + h.Family().String()
		out = append(out, ladderTable{name: name, hash: h, res: b.res[i], miss: b.miss[i]})
	}
	return out
}

func (b *hotBench) checker() *checker { return &b.chk }

// scaled returns n×scale, at least lo.
func scaled(n int, scale float64, lo int) int {
	v := int(float64(n) * scale)
	if v < lo {
		return lo
	}
	return v
}

func lens(pools [][]string) []int {
	out := make([]int, len(pools))
	for i, p := range pools {
		out[i] = len(p)
	}
	return out
}
