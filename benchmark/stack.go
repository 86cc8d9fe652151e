package main

import "github.com/sepe-go/sepe"

// Every call that builds part of the system under test — format
// parsing, synthesis, and each container constructor — lives in this
// file, so a change to the library's constructors touches the
// benchmark here and nowhere else.

// table is the container surface the workloads and the ladder drive.
type table interface {
	Put(key string, val int) bool
	Get(key string) (int, bool)
	Delete(key string) int
}

func asTables[T table](ms []T) []table {
	out := make([]table, len(ms))
	for i, m := range ms {
		out[i] = m
	}
	return out
}

func parseFormat(tr *tracer, parent int32, regex string) (*sepe.Format, error) {
	id := tr.begin("rex.ParseRegex", parent)
	defer tr.end(id)
	return sepe.ParseRegex(regex)
}

func synthesize(tr *tracer, parent int32, f *sepe.Format, fam sepe.Family) (*sepe.Hash, error) {
	id := tr.begin("core.Synthesize", parent)
	defer tr.end(id)
	return sepe.Synthesize(f, fam)
}

func newPlainMap(h *sepe.Hash) *sepe.Map[int] { return sepe.NewMap[int](h.Func()) }

func newShardedMap(h *sepe.Hash) *sepe.ShardedMap[int] { return sepe.NewShardedMap[int](h.Func()) }

func newObservedShardedMap(h *sepe.Hash, reg *sepe.MetricsRegistry, name string) *sepe.ShardedMap[int] {
	return sepe.NewShardedMapObserved[int](h.Func(), reg, name)
}

// newAdaptiveHash wraps a Pext function of f for self-healing with the
// library's default configuration, except that its metrics go to reg
// so runs and set-up repetitions never share state.
func newAdaptiveHash(tr *tracer, parent int32, name string, f *sepe.Format, reg *sepe.MetricsRegistry) (*sepe.AdaptiveHash, error) {
	id := tr.begin("adaptive.NewAdaptiveHash", parent)
	defer tr.end(id)
	return sepe.NewAdaptiveHash(name, f, sepe.Pext, sepe.AdaptiveConfig{Registry: reg})
}

func newAdaptiveShardedMap(h *sepe.AdaptiveHash) *sepe.ShardedAdaptiveMap[int] {
	return sepe.NewShardedMapAdaptive[int](h)
}

// bcollRatio is the paper's B-Coll over the entries of tabs: keys that
// share a bucket with an earlier key, per entry.
func bcollRatio[T interface{ Stats() sepe.TableStats }](tabs []T) float64 {
	var coll, size int
	for _, t := range tabs {
		s := t.Stats()
		coll += s.BucketCollisions
		size += s.Size
	}
	if size == 0 {
		return 0
	}
	return float64(coll) / float64(size)
}
