package m3e

// WithBrackets returns o with every virtual-time bracket the pruning
// pass prices replaced by narrow(lo, hi), so a test can feed the
// bracket check a deliberately wrong bracket.
func WithBrackets(o Options, narrow func(lo, hi float64) (float64, float64)) Options {
	o.narrow = narrow
	return o
}

// MapTops replaces every bracket top s holds by f(top), so a test can
// loosen them.
func MapTops(s *CacheStore, f func(float64) float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for fp, e := range s.entries {
		if e.run == topRun {
			s.entries[fp] = storeEntry{fit: f(e.fit), run: topRun}
		}
	}
}
