package bench

import (
	"fmt"
	"sync"
	"time"

	"github.com/sepe-go/sepe/internal/container"
	"github.com/sepe-go/sepe/internal/hashes"
	"github.com/sepe-go/sepe/internal/keys"
	"github.com/sepe-go/sepe/internal/rng"
)

// Mode is the driver's execution mode (Section 4, "Mode"): batched, or
// one of the three interweaved probability mixes.
type Mode int

const (
	// Batched runs all insertions, then all searches, then all
	// eliminations.
	Batched Mode = iota
	// Inter70 interweaves with (P_insert, P_search) = (0.7, 0.2).
	Inter70
	// Inter60 interweaves with (0.6, 0.2).
	Inter60
	// Inter40 interweaves with (0.4, 0.3).
	Inter40
)

// Modes lists the four execution modes.
var Modes = []Mode{Batched, Inter70, Inter60, Inter40}

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Batched:
		return "Batched"
	case Inter70:
		return "Inter(0.7,0.2)"
	case Inter60:
		return "Inter(0.6,0.2)"
	case Inter40:
		return "Inter(0.4,0.3)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

func (m Mode) probs() (pi, ps float64) {
	switch m {
	case Inter70:
		return 0.7, 0.2
	case Inter60:
		return 0.6, 0.2
	case Inter40:
		return 0.4, 0.3
	default:
		return 0, 0
	}
}

// Spreads are the paper's key-pool sizes.
var Spreads = []int{500, 2000, 10000}

// DefaultAffectations is the paper's per-experiment operation count.
const DefaultAffectations = 10000

// CollisionKeys is the key count of the collision columns ("considering
// 10,000 keys").
const CollisionKeys = 10000

// Config is one experiment: a parameterization of the driver.
type Config struct {
	Key          keys.Type
	Structure    container.Kind
	Dist         keys.Distribution
	Spread       int
	Mode         Mode
	Affectations int
	// Seed makes runs reproducible; sample indices perturb it.
	Seed uint64
}

func (c Config) String() string {
	return fmt.Sprintf("%v/%v/%v/spread=%d/%v", c.Key, c.Structure, c.Dist, c.Spread, c.Mode)
}

// Result is the outcome of one experiment run.
type Result struct {
	// BTime is the wall time of the affectation loop — the paper's
	// B-Time, covering hashing plus container operations.
	BTime time.Duration
	// HTime is the time of hashing CollisionKeys keys once — the
	// paper's H-Time (10 000 activations of the hash alone).
	HTime time.Duration
	// BColl is the container's bucket-collision count with
	// CollisionKeys distinct keys inserted.
	BColl int
	// TColl counts keys whose 64-bit hash collides with an earlier
	// distinct key, over CollisionKeys distinct keys.
	TColl int
	// Ops sanity-counts the operations performed.
	Ops int
}

// Run executes one experiment with the given hash function.
func Run(cfg Config, hash hashes.Func) Result {
	if cfg.Affectations == 0 {
		cfg.Affectations = DefaultAffectations
	}
	if cfg.Spread == 0 {
		cfg.Spread = Spreads[0]
	}
	// The affectation pool is the first Spread keys of the cached
	// 10 000-key draw: Distinct draws sequentially, so the prefix is
	// exactly what Distinct(Spread) would return, and the cache saves
	// regenerating pools for each of the 48 grid configurations that
	// share a (type, distribution, seed).
	pool := collisionPool(cfg.Key, cfg.Dist, cfg.Seed)[:cfg.Spread]
	r := rng.New(cfg.Seed*0x9E3779B97F4A7C15 + 1)

	// The measured affectation loop.
	c := container.New(cfg.Structure, hash)
	var res Result
	start := time.Now()
	if cfg.Mode == Batched {
		res.Ops = runBatched(c, pool, cfg.Affectations)
	} else {
		res.Ops = runInterweaved(c, pool, cfg.Affectations, cfg.Mode, cfg.Dist, r)
	}
	res.BTime = time.Since(start)

	// H-Time and the collision counts use the full 10 000-key draw so
	// the columns are comparable across spreads, as in the paper.
	collPool := collisionPool(cfg.Key, cfg.Dist, cfg.Seed)
	hStart := time.Now()
	var sink uint64
	for _, k := range collPool[:CollisionKeys] {
		sink += hash(k)
	}
	res.HTime = time.Since(hStart)
	_ = sink

	seen := make(map[uint64]struct{}, CollisionKeys)
	cc := container.New(cfg.Structure, hash)
	for _, k := range collPool[:CollisionKeys] {
		h := hash(k)
		if _, dup := seen[h]; dup {
			res.TColl++
		}
		seen[h] = struct{}{}
		cc.Insert(k)
	}
	res.BColl = cc.Stats().BucketCollisions
	return res
}

// poolCache memoizes the 10 000-key collision pools: the 48 grid
// configurations of one (type, distribution) share each sample seed,
// and pool generation would otherwise dominate the driver.
var (
	poolMu    sync.Mutex
	poolCache = map[poolKey][]string{}
)

type poolKey struct {
	t    keys.Type
	d    keys.Distribution
	seed uint64
}

func collisionPool(t keys.Type, d keys.Distribution, seed uint64) []string {
	k := poolKey{t, d, seed}
	poolMu.Lock()
	defer poolMu.Unlock()
	if p, ok := poolCache[k]; ok {
		return p
	}
	if len(poolCache) > 256 {
		poolCache = map[poolKey][]string{} // bound memory across sweeps
	}
	p := keys.NewGenerator(t, d, seed).Distinct(CollisionKeys)
	poolCache[k] = p
	return p
}

// runBatched performs the batched mode: one third insertions, one
// third searches, one third eliminations over the pool.
func runBatched(c container.Container, pool []string, n int) int {
	third := n / 3
	ops := 0
	for i := 0; i < third; i++ {
		c.Insert(pool[i%len(pool)])
		ops++
	}
	for i := 0; i < third; i++ {
		c.Search(pool[i%len(pool)])
		ops++
	}
	for i := 0; i < n-2*third; i++ {
		c.Erase(pool[i%len(pool)])
		ops++
	}
	return ops
}

// runInterweaved performs the interweaved mode of Section 4: half the
// affectations insert, then the rest mix insert/search/remove with the
// mode's probabilities.
func runInterweaved(c container.Container, pool []string, n int, m Mode, dist keys.Distribution, r *rng.Rand) int {
	half := n / 2
	ops := 0
	next := func(i int) string {
		if dist == keys.Inc {
			return pool[i%len(pool)]
		}
		return pool[r.Intn(len(pool))]
	}
	for i := 0; i < half; i++ {
		c.Insert(next(i))
		ops++
	}
	pi, ps := m.probs()
	for i := half; i < n; i++ {
		k := next(i)
		switch f := r.Float64(); {
		case f < pi:
			c.Insert(k)
		case f < pi+ps:
			c.Search(k)
		default:
			c.Erase(k)
		}
		ops++
	}
	return ops
}
