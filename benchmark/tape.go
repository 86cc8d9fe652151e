package main

import "github.com/sepe-go/sepe/internal/rng"

// A tape is a pre-generated sequence of table operations, one uint32
// each: table index in bits 0-5, kind in bits 6-7, key index above.
// table-hot replays it as its workload and the ladder replays it
// through every rung, so both see the same operation mix.
const (
	opGet    = iota // Get of a resident key
	opMiss          // Get of a key that is never stored
	opUpdate        // Put over a resident key
	opInsert        // Put of an absent key, then its Delete
)

const maxTables = 64

func packOp(tab, kind, idx int) uint32 { return uint32(idx)<<8 | uint32(kind)<<6 | uint32(tab) }

func unpackOp(op uint32) (tab, kind, idx int) {
	return int(op & (maxTables - 1)), int(op >> 6 & 3), int(op >> 8)
}

// makeTape draws n operations over tables whose resident and miss
// pools have the given sizes: 80% hit Get, 10% miss Get, 5% update and
// 5% insert+Delete, on a uniformly chosen table and key.
func makeTape(r *rng.Rand, res, miss []int, n int) []uint32 {
	tape := make([]uint32, n)
	for i := range tape {
		t := r.Intn(len(res))
		switch p := r.Intn(100); {
		case p < 80:
			tape[i] = packOp(t, opGet, r.Intn(res[t]))
		case p < 90:
			tape[i] = packOp(t, opMiss, r.Intn(miss[t]))
		case p < 95:
			tape[i] = packOp(t, opUpdate, r.Intn(res[t]))
		default:
			tape[i] = packOp(t, opInsert, r.Intn(miss[t]))
		}
	}
	return tape
}

// replayer executes tape operations against tabs and checks every
// result against a shadow of the values it stored. Two replayers may
// share tabs and shadow when they take disjoint key partitions.
type replayer struct {
	tabs      []table
	res, miss [][]string
	shadow    [][]int
	next      int
	tally
}

// newShadow returns the shadow of tables filled with value i at
// resident key i.
func newShadow(res [][]string) [][]int {
	shadow := make([][]int, len(res))
	for t, keys := range res {
		shadow[t] = make([]int, len(keys))
		for i := range keys {
			shadow[t][i] = i
		}
	}
	return shadow
}

// step executes one operation and returns the number of container
// calls it made.
func (r *replayer) step(op uint32) int {
	t, kind, i := unpackOp(op)
	m := r.tabs[t]
	switch kind {
	case opGet:
		v, ok := m.Get(r.res[t][i])
		r.check(ok && v == r.shadow[t][i])
		return 1
	case opMiss:
		_, ok := m.Get(r.miss[t][i])
		r.check(!ok)
		return 1
	case opUpdate:
		r.next++
		r.check(!m.Put(r.res[t][i], r.next))
		r.shadow[t][i] = r.next
		return 1
	default:
		k := r.miss[t][i]
		r.check(m.Put(k, -1))
		r.check(m.Delete(k) == 1)
		return 2
	}
}

// replay executes the operations of tape whose key index falls in
// partition part of parts, returning the container calls made.
func (r *replayer) replay(tape []uint32, part, parts int) int64 {
	var calls int64
	for _, op := range tape {
		if parts > 1 && int(op>>8)%parts != part {
			continue
		}
		calls += int64(r.step(op))
	}
	return calls
}

// fill stores resident key i with value i in every table, checking
// each key is new.
func fill[T interface{ Put(string, int) bool }](tabs []T, res [][]string, c *checker) {
	var tl tally
	for t, m := range tabs {
		for i, k := range res[t] {
			tl.check(m.Put(k, i))
		}
	}
	c.add(tl.attempted, tl.failed)
}
