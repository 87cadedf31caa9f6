package m3e

// WithBrackets returns o with every virtual-time bracket the pruning
// pass prices replaced by narrow(lo, hi), so a test can feed the
// bracket check a deliberately wrong bracket.
func WithBrackets(o Options, narrow func(lo, hi float64) (float64, float64)) Options {
	o.narrow = narrow
	return o
}
