package sepe

import "github.com/sepe-go/sepe/internal/core"

// ServingSeedGen returns the seed generation of the Function h serves:
// the initial *Hash or a promoted *core.Fn. It is 0 while the
// fallback serves or when the Function is unseeded, so tests can check
// that a recovery re-keyed the hash.
func ServingSeedGen(h *AdaptiveHash) uint64 {
	switch fn, _ := h.a.Serving(); fn := fn.(type) {
	case *Hash:
		return fn.SeedGeneration()
	case *core.Fn:
		if s := fn.Plan().Seed; s != nil {
			return s.Gen
		}
	}
	return 0
}
