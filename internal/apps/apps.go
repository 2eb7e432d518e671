package apps

import "mapsynth/internal/index"

// Index is the containment-lookup surface the applications need: an
// *index.MappingIndex over heap mappings or over a v2 snapshot image, or a
// CachedIndex wrapping one for the length of a multi-query call. Every
// implementation returns the same globally ordered hit list, so
// application results are identical whichever one answers the query.
type Index interface {
	// LookupLeft finds mappings whose left column covers at least
	// minCoverage of the query values, best first.
	LookupLeft(values []string, minCoverage float64) []index.Hit
	// MixedColumnHits finds mappings where the query values split between
	// the left and right columns, best first.
	MixedColumnHits(values []string, minEach int, minCoverage float64) []index.Hit
}

var _ Index = (*index.MappingIndex)(nil)
