package container

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/sepe-go/sepe/internal/hashes"
)

// tapeHashes are the hash functions an op tape can start with or
// migrate to: a strong one, two that collide often (full 64-bit
// collisions included), and one that puts every key in four buckets.
var tapeHashes = []hashes.Func{hashes.STL, hashes.LoseLose, weakHash, hashes.FNV}

// tapeKeys is the key space of an op tape, small enough that keys
// repeat and chains share buckets.
var tapeKeys = func() []string {
	ks := make([]string, 96)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%02d", i)
	}
	return ks
}()

// hookEvent is one observer call with its arguments.
type hookEvent struct {
	name    string
	key     string
	a, b, c int
}

// eventLog is an Observer that records every call a table makes.
type eventLog []hookEvent

func (l *eventLog) add(e hookEvent) { *l = append(*l, e) }

func (l *eventLog) Put(k string, p, d int)    { l.add(hookEvent{name: "put", key: k, a: p, b: d}) }
func (l *eventLog) Get(k string, p int)       { l.add(hookEvent{name: "get", key: k, a: p}) }
func (l *eventLog) Delete(k string, p, d int) { l.add(hookEvent{name: "delete", key: k, a: p, b: d}) }
func (l *eventLog) Rehash(bc int)             { l.add(hookEvent{name: "rehash", a: bc}) }
func (l *eventLog) Clear()                    { l.add(hookEvent{name: "clear"}) }
func (l *eventLog) MigrateStart(r, f int)     { l.add(hookEvent{name: "migrate-start", a: r, b: f}) }
func (l *eventLog) MigrateDone(n int)         { l.add(hookEvent{name: "migrate-done", a: n}) }

type kv[V any] struct {
	key string
	val V
}

// lookup is a Get result.
type lookup[V any] struct {
	val V
	ok  bool
}

// tapeOp is one op of a tape: an opcode and an argument, which names
// the key.
type tapeOp struct {
	code byte
	arg  int
}

// runTape replays tape on a flat table and on the slice-per-bucket
// oracle, failing on the first operation where any return value,
// observer call or argument, Stats field, or ForEach/GetAll order
// differs.
//
// The first byte picks the hash function, and its top bit shifts every
// hash the tape uses right by 8 (RQ7's low-mixing container); then
// every two bytes are one op: an opcode and an argument, which names
// the key.
func runTape[V comparable](t *testing.T, kind string, tape []byte, multi bool, val func(int) V) {
	if len(tape) == 0 {
		return
	}
	tape = tape[:min(len(tape), 8192)] // every op rechecks the whole table
	var ops []tapeOp
	for step := 0; 2*step+2 < len(tape); step++ {
		ops = append(ops, tapeOp{tape[1+2*step], int(tape[2+2*step])})
	}
	runOps(t, kind, tape[0], ops, tapeKeys, 1, multi, val, nil)
}

// runOps replays ops as runTape does, over keys: hashSel is the tape's
// first byte, and an op's argument names keys[arg%len(keys)]. Return
// values, observer calls, the migration state and the load factor are
// checked after every op; Stats and ForEach order after every
// fullEvery-th op and after the last. A non-nil before sees the flat
// table ahead of each op.
func runOps[V comparable](t *testing.T, kind string, hashSel byte, ops []tapeOp, keys []string, fullEvery int, multi bool, val func(int) V, before func(tapeOp, *Table[V])) {
	tapeHash := func(i int) hashes.Func {
		h := tapeHashes[i%len(tapeHashes)]
		if hashSel&0x80 == 0 {
			return h
		}
		return func(k string) uint64 { return h(k) >> 8 }
	}
	hash := tapeHash(int(hashSel))
	got, want := NewTable[V](hash, multi), newRefTable[V](hash, multi)
	var gotLog, wantLog eventLog
	got.obs, want.obs = &gotLog, &wantLog
	var gEach, wEach []kv[V]

	for step, o := range ops {
		if before != nil {
			before(o, got)
		}
		op, arg := o.code, o.arg
		key := keys[arg%len(keys)]
		var desc string
		var g, w any
		switch op % 16 {
		case 0, 1, 2, 3, 4, 5:
			desc = "Put " + key
			g = got.put(got.hash(key), key, val(step))
			w = want.put(want.hash(key), key, val(step))
		case 6, 7:
			desc = "Get " + key
			gv, gok := got.get(got.hash(key), key)
			wv, wok := want.get(want.hash(key), key)
			g, w = lookup[V]{gv, gok}, lookup[V]{wv, wok}
		case 8, 9:
			desc = "Delete " + key
			g, w = got.del(got.hash(key), key), want.del(want.hash(key), key)
		case 10:
			desc = "Count " + key
			g, w = got.count(got.hash(key), key), want.count(want.hash(key), key)
		case 11:
			desc = "GetAll " + key
			gv, wv := got.collect(got.hash(key), key), want.collect(want.hash(key), key)
			if !slices.Equal(gv, wv) || (gv == nil) != (wv == nil) {
				t.Fatalf("%s step %d %s: GetAll = %v, oracle %v", kind, step, desc, gv, wv)
			}
		case 12:
			desc = fmt.Sprintf("Reserve %d", arg)
			got.reserve(arg)
			want.reserve(arg)
		case 13:
			if arg >= 16 { // keep Clear rare so tables grow
				desc = "ForEach"
				break
			}
			desc = "Clear"
			got.clear()
			want.clear()
		case 14:
			h := tapeHash(arg)
			desc = fmt.Sprintf("BeginMigration %d", arg%len(tapeHashes))
			got.rehashInto(h)
			want.rehashInto(h)
		case 15:
			desc = fmt.Sprintf("MigrateStep %d", arg%4+1)
			g, w = got.drain(arg%4+1), want.drain(arg%4+1)
		}
		if g != w {
			t.Fatalf("%s step %d %s: returned %v, oracle %v", kind, step, desc, g, w)
		}
		if !slices.Equal(gotLog, wantLog) {
			t.Fatalf("%s step %d %s: observer calls\n got %+v\nwant %+v", kind, step, desc, gotLog, wantLog)
		}
		gotLog, wantLog = gotLog[:0], wantLog[:0]
		if got.migrating() != want.migrating() || got.loadFactor() != want.loadFactor() {
			t.Fatalf("%s step %d %s: migrating/load factor differ", kind, step, desc)
		}
		if (step+1)%fullEvery != 0 && step+1 < len(ops) {
			continue
		}
		if gs, ws := got.Stats(), refStats(want); gs != ws {
			t.Fatalf("%s step %d %s: Stats = %+v, oracle %+v", kind, step, desc, gs, ws)
		}
		gEach, wEach = gEach[:0], wEach[:0]
		got.forEach(func(k string, v V) { gEach = append(gEach, kv[V]{k, v}) })
		want.forEach(func(k string, v V) { wEach = append(wEach, kv[V]{k, v}) })
		if !slices.Equal(gEach, wEach) {
			t.Fatalf("%s step %d %s: ForEach order\n got %v\nwant %v", kind, step, desc, gEach, wEach)
		}
	}
}

// FuzzTableOps holds the flat table bit-identical to the former
// slice-per-bucket layout (reference_test.go) over random op tapes,
// for all four container kinds, with an observer installed.
func FuzzTableOps(f *testing.F) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{3, 64, 512, 2048, 4096} {
		for range 4 {
			tape := make([]byte, n)
			for i := range tape {
				tape[i] = byte(r.Uint32())
			}
			f.Add(tape)
		}
	}
	// Tables many times one step's precompute, held mid-migration; the
	// bytes index tapeHashes, and 0x80 shifts every hash right by 8.
	for _, hs := range [][3]byte{{1, 2, 0}, {2, 1, 3}, {0, 1, 2}, {0x81, 0, 1}} {
		f.Add(mixedCursorTape(hs[0], hs[1], hs[2]))
	}
	// Slot arrays that grow mid-migration over fewer buckets than slots.
	for _, hs := range [][2]byte{{0, 3}, {1, 2}, {0x82, 0}} {
		f.Add(shrinkGrowTape(hs[0], hs[1]))
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		intVal := func(i int) int { return i }
		noVal := func(int) struct{} { return struct{}{} }
		runTape(t, "Map", tape, false, intVal)
		runTape(t, "Set", tape, false, noVal)
		runTape(t, "MultiMap", tape, true, intVal)
		runTape(t, "MultiSet", tape, true, noVal)
	})
}

// mixedCursorTape is an op tape that fills a table with every tape key
// (twice, so multi tables hold two copies), migrates it to hash index
// to one bucket a step, with lookups, erasures and re-inserts between
// steps, swaps to hash index then before the first migration ends,
// and clears the table mid-migration. Its tables outgrow one
// MigrateStep's precompute many times over, so the ops hit entries on
// both sides of the rehash cursor.
func mixedCursorTape(from, to, then byte) []byte {
	tape := []byte{from}
	op := func(code byte, arg int) { tape = append(tape, code, byte(arg)) }
	for range 2 {
		for i := range tapeKeys {
			op(0, i)
		}
	}
	op(14, int(to))
	for i := range 24 {
		op(15, 0) // MigrateStep 1
		op(6, i)
		op(10, i+40)
		op(11, i+70)
		op(8, i+3)
		op(0, i+3) // reuses the slot just freed
	}
	op(14, int(then))
	for i := range 12 {
		op(15, 1) // MigrateStep 2
		op(6, 95-i)
		op(8, 50+i)
		op(0, 50+i)
		op(11, i)
	}
	op(13, 0) // Clear
	for i := range 40 {
		op(0, i)
	}
	op(14, int(to))
	for i := range 8 {
		op(15, 0)
		op(6, i)
	}
	return tape
}

// shrinkGrowTape is an op tape that fills a table with 30 keys, which
// leaves its slot arrays full, erases all but four, and migrates it to
// hash index to, over 13 buckets against 30 slots. It then inserts 92
// keys with a MigrateStep after every other one, so the slot arrays
// grow twice, past 30 and past 60 slots, while the retired region still
// holds entries; lookups, erasures and duplicates follow.
func shrinkGrowTape(from, to byte) []byte {
	tape := []byte{from}
	op := func(code byte, arg int) { tape = append(tape, code, byte(arg)) }
	for i := range 30 {
		op(0, i)
	}
	for i := 4; i < 30; i++ {
		op(8, i)
	}
	op(14, int(to))
	for i := 4; i < len(tapeKeys); i++ {
		op(0, i)
		if i%2 == 0 {
			op(15, 0) // MigrateStep 1
		}
	}
	for i := range 16 {
		op(6, 3*i)
		op(8, 5*i+1)
		op(0, 7*i) // a duplicate in multi tables
		op(15, 1)  // MigrateStep 2
	}
	return tape
}

// chunkKeys is the key space of chunkOps: enough distinct keys to fill
// a table past two chunks and keep inserting new ones.
var chunkKeys = func() []string {
	ks := make([]string, 4*chunkSlots)
	for i := range ks {
		ks[i] = fmt.Sprintf("c%05d", i)
	}
	return ks
}()

// chunkOps is an op list over chunkKeys that drives a table across the
// first-segment/chunk boundary. It fills 2.5·chunkSlots keys, with
// lookups of present and absent ones; erases the keys whose slots
// straddle chunkSlots and puts a quarter of them back, so the free list
// hands out slots on both sides of it; then migrates to hash index to
// with the slot count, and so hashEnd, inside the partly used chunk of
// slots 2·chunkSlots to 3·chunkSlots. Between migration steps it
// inserts new keys until the next chunk opens, erases and re-puts old
// ones, swaps to hash index then mid-migration, clears the table
// mid-migration, refills it past chunkSlots into the chunks Clear
// kept, and migrates to the end.
func chunkOps(to, then int) []tapeOp {
	var ops []tapeOp
	op := func(code byte, arg int) { ops = append(ops, tapeOp{code, arg}) }
	fill := 2*chunkSlots + chunkSlots/2
	for i := range fill {
		op(0, i)
		if i%16 == 0 {
			op(6, i/2)      // Get, present
			op(10, fill+i)  // Count, absent
			op(11, i/3)     // GetAll
			op(13, 16+i%64) // ForEach
		}
	}
	for i := chunkSlots - 256; i < chunkSlots+256; i++ {
		op(8, i)
	}
	for i := chunkSlots + 255; i >= chunkSlots-256; i -= 4 {
		op(0, i)
	}
	op(14, to)
	next := fill
	for i := range 1600 {
		op(15, 0) // MigrateStep 1
		op(0, next)
		next++
		op(6, 3*i%fill)
		op(8, 5*i%fill)
		op(0, 5*i%fill)
	}
	op(14, then)
	for i := range 200 {
		op(15, 3) // MigrateStep 4
		op(6, 7*i%next)
		op(8, 11*i%next)
	}
	op(13, 0) // Clear
	for i := range chunkSlots + chunkSlots/2 {
		op(0, i)
		if i%8 == 0 {
			op(8, i/2)
		}
	}
	op(14, to)
	for i := range 2000 {
		op(15, 3)
		op(6, i)
	}
	return ops
}

// chunkReach records which states of chunkOps a table passed through.
type chunkReach struct {
	maxSlots       int32
	freeBothSides  bool // erased slots below and at or above chunkSlots
	hashEndInChunk bool // a migration began inside a partly used chunk
	clearMigrating bool // Clear ran while a migration was in flight
}

// chunkProbe returns a before hook for runOps that records into r.
func chunkProbe[V any](r *chunkReach) func(tapeOp, *Table[V]) {
	return func(o tapeOp, tab *Table[V]) {
		r.maxSlots = max(r.maxSlots, tab.slots)
		switch {
		case o.code == 14 && !tab.migrating():
			r.hashEndInChunk = r.hashEndInChunk ||
				(tab.slots > chunkSlots && tab.slots%chunkSlots != 0)
			below, above := false, false
			for i := tab.free; i >= 0; i = *tab.link(i) {
				below, above = below || i < chunkSlots, above || i >= chunkSlots
			}
			r.freeBothSides = r.freeBothSides || below && above
		case o.code == 13 && o.arg < 16:
			r.clearMigrating = r.clearMigrating || tab.migrating()
		}
	}
}

// TestTableOpsAcrossChunks replays chunkOps on every container kind
// against the refTable oracle, checked op by op as FuzzTableOps checks
// its tapes, over tables too large for a fuzz tape: past 3·chunkSlots
// slots, with erasures across the first chunk boundary, a migration
// whose slot count ends inside a partly used chunk, and Clear
// mid-migration.
func TestTableOpsAcrossChunks(t *testing.T) {
	for _, hs := range [][3]byte{{0, 1, 3}, {1, 0, 2}, {0x83, 0, 1}} {
		t.Run(fmt.Sprintf("hashes%v", hs), func(t *testing.T) {
			ops := chunkOps(int(hs[1]), int(hs[2]))
			intVal := func(i int) int { return i }
			noVal := func(int) struct{} { return struct{}{} }
			var reach [4]chunkReach
			runOps(t, "Map", hs[0], ops, chunkKeys, 61, false, intVal, chunkProbe[int](&reach[0]))
			runOps(t, "Set", hs[0], ops, chunkKeys, 61, false, noVal, chunkProbe[struct{}](&reach[1]))
			runOps(t, "MultiMap", hs[0], ops, chunkKeys, 61, true, intVal, chunkProbe[int](&reach[2]))
			runOps(t, "MultiSet", hs[0], ops, chunkKeys, 61, true, noVal, chunkProbe[struct{}](&reach[3]))
			for k, r := range reach {
				if r.maxSlots <= 3*chunkSlots || !r.freeBothSides || !r.hashEndInChunk || !r.clearMigrating {
					t.Errorf("kind %d reached %+v, want over %d slots and every flag set", k, r, 3*chunkSlots)
				}
			}
		})
	}
}
