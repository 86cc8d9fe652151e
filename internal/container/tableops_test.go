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

// hookEvent is one hook call with its arguments.
type hookEvent struct {
	name    string
	key     string
	a, b, c int
	found   bool
}

// eventLog records every hook a table fires.
type eventLog []hookEvent

func (l *eventLog) hooks() *Hooks {
	add := func(e hookEvent) { *l = append(*l, e) }
	return &Hooks{
		OnPut:    func(k string, p, d int) { add(hookEvent{name: "put", key: k, a: p, b: d}) },
		OnGet:    func(k string, p int, f bool) { add(hookEvent{name: "get", key: k, a: p, found: f}) },
		OnDelete: func(k string, p, r, d int) { add(hookEvent{name: "delete", key: k, a: p, b: r, c: d}) },
		OnRehash: func(n, bc int) { add(hookEvent{name: "rehash", a: n, b: bc}) },
		OnClear:  func() { add(hookEvent{name: "clear"}) },
		OnMigrateStart: func(r, f int) {
			add(hookEvent{name: "migrate-start", a: r, b: f})
		},
		OnMigrateDone: func(n int) { add(hookEvent{name: "migrate-done", a: n}) },
	}
}

type kv[V any] struct {
	key string
	val V
}

// lookup is a Get result.
type lookup[V any] struct {
	val V
	ok  bool
}

// runTape replays tape on a flat table and on the slice-per-bucket
// oracle, failing on the first operation where any return value, hook
// argument, Stats field, or ForEach/GetAll order differs.
//
// The first byte picks the hash function and indexer; then every two
// bytes are one op: an opcode and an argument, which names the key.
func runTape[V comparable](t *testing.T, kind string, tape []byte, multi bool, val func(int) V) {
	if len(tape) == 0 {
		return
	}
	tape = tape[:min(len(tape), 8192)] // every op rechecks the whole table
	hash := tapeHashes[int(tape[0])%len(tapeHashes)]
	var index Indexer
	if tape[0]&0x80 != 0 {
		index = HighBitsIndexer(8)
	}
	got, want := NewTable[V](hash, index, multi), newRefTable[V](hash, index, multi)
	var gotLog, wantLog eventLog
	got.hooks, want.hooks = gotLog.hooks(), wantLog.hooks()

	for step := 0; 2*step+2 < len(tape); step++ {
		op, arg := tape[1+2*step], int(tape[2+2*step])
		key := tapeKeys[arg%len(tapeKeys)]
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
			h := tapeHashes[arg%len(tapeHashes)]
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
			t.Fatalf("%s step %d %s: hooks\n got %+v\nwant %+v", kind, step, desc, gotLog, wantLog)
		}
		gotLog, wantLog = gotLog[:0], wantLog[:0]
		if gs, ws := got.Stats(), refStats(want); gs != ws {
			t.Fatalf("%s step %d %s: Stats = %+v, oracle %+v", kind, step, desc, gs, ws)
		}
		if got.migrating() != want.migrating() || got.loadFactor() != want.loadFactor() {
			t.Fatalf("%s step %d %s: migrating/load factor differ", kind, step, desc)
		}
		var gEach, wEach []kv[V]
		got.forEach(func(k string, v V) { gEach = append(gEach, kv[V]{k, v}) })
		want.forEach(func(k string, v V) { wEach = append(wEach, kv[V]{k, v}) })
		if !slices.Equal(gEach, wEach) {
			t.Fatalf("%s step %d %s: ForEach order\n got %v\nwant %v", kind, step, desc, gEach, wEach)
		}
	}
}

// FuzzTableOps holds the flat table bit-identical to the former
// slice-per-bucket layout (reference_test.go) over random op tapes,
// for all four container kinds, with hooks installed.
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
	f.Fuzz(func(t *testing.T, tape []byte) {
		intVal := func(i int) int { return i }
		noVal := func(int) struct{} { return struct{}{} }
		runTape(t, "Map", tape, false, intVal)
		runTape(t, "Set", tape, false, noVal)
		runTape(t, "MultiMap", tape, true, intVal)
		runTape(t, "MultiSet", tape, true, noVal)
	})
}
