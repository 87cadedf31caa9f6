package m3e

import (
	"time"

	"magma/internal/encoding"
)

// WithBrackets returns o with every virtual-time bracket the pruning
// pass prices replaced by narrow(lo, hi), so a test can feed the
// bracket check a deliberately wrong bracket.
func WithBrackets(o Options, narrow func(lo, hi float64) (float64, float64)) Options {
	o.narrow = narrow
	return o
}

// CachedEval binds pool's fitness cache to store, as a cached run on p
// would, and returns a function that scores one batch through it on the
// pool (no pruning pass) and returns the run's counters so far.
func CachedEval(pool *Pool, p *Problem, store *CacheStore) func(batch []encoding.Genome, fit []float64) CacheStats {
	c := pool.cacheFor(p, store)
	return func(batch []encoding.Genome, fit []float64) CacheStats {
		c.evaluate(pool, batch, fit, nil, nil, time.Time{})
		return c.stats
	}
}

// PoolScratch returns the fitness cache pl keeps for its cached runs,
// nil before the first.
func PoolScratch(pl *Pool) *fitnessCache { return pl.cache }
