// Package stats computes corpus co-occurrence statistics used for column
// coherence filtering (Section 3.1 of the paper).
//
// The coherence of two values u, v is their Normalized Pointwise Mutual
// Information over column co-occurrence in the corpus:
//
//	PMI(u,v)  = log( p(u,v) / (p(u)·p(v)) )
//	NPMI(u,v) = PMI(u,v) / (-log p(u,v))            ∈ [-1, 1]
//
// where p(u) = |C(u)|/N, p(v) = |C(v)|/N, p(u,v) = |C(u)∩C(v)|/N, C(u) is the
// set of corpus columns containing u and N the total number of columns. A
// column's coherence S(C) is the average pairwise NPMI of its values
// (Equation 2); incoherent columns (mixed concepts, extraction glitches) are
// filtered before candidate extraction.
package stats

import (
	"math"
	"sort"

	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// CooccurrenceIndex maps each normalized value to the set of corpus columns
// containing it, enabling PMI computation. Column identity is a dense integer
// assigned during Build.
type CooccurrenceIndex struct {
	// columns[v] lists the column IDs containing normalized value v, sorted
	// ascending without duplicates.
	columns map[string][]int32
	// n is the total number of columns indexed.
	n int
}

// BuildIndex scans a corpus and indexes every column of every table. Values
// are normalized before indexing; empty normalized values are skipped.
func BuildIndex(tables []*table.Table) *CooccurrenceIndex {
	idx := &CooccurrenceIndex{columns: make(map[string][]int32)}
	var colID int32
	for _, t := range tables {
		for ci := range t.Columns {
			c := &t.Columns[ci]
			seen := make(map[string]struct{}, len(c.Values))
			for _, v := range c.Values {
				nv := textnorm.Normalize(v)
				if nv == "" {
					continue
				}
				if _, ok := seen[nv]; ok {
					continue
				}
				seen[nv] = struct{}{}
				idx.columns[nv] = append(idx.columns[nv], colID)
			}
			colID++
		}
	}
	idx.n = int(colID)
	// Posting lists are appended in increasing column ID, so they are
	// already sorted and duplicate-free.
	return idx
}

// Append indexes additional tables in place, continuing the dense column ID
// sequence where the previous build stopped. Because column IDs are assigned
// in table order and posting lists are appended in increasing ID, the result
// is exactly the index BuildIndex would produce over the concatenated corpus
// — the identity the incremental pipeline relies on. Appending re-weights
// every NPMI (N grows); CoherenceCounts keeps the per-column counts that
// let the incremental path re-score every column without re-reading the
// posting lists, and reads this index only for newly appended columns.
func (x *CooccurrenceIndex) Append(tables []*table.Table) {
	colID := int32(x.n)
	for _, t := range tables {
		for ci := range t.Columns {
			c := &t.Columns[ci]
			seen := make(map[string]struct{}, len(c.Values))
			for _, v := range c.Values {
				nv := textnorm.Normalize(v)
				if nv == "" {
					continue
				}
				if _, ok := seen[nv]; ok {
					continue
				}
				seen[nv] = struct{}{}
				x.columns[nv] = append(x.columns[nv], colID)
			}
			colID++
		}
	}
	x.n = int(colID)
}

// NumColumns returns N, the total number of columns indexed.
func (x *CooccurrenceIndex) NumColumns() int { return x.n }

// DocFreq returns |C(v)| for a normalized value v: the number of distinct
// columns containing it.
func (x *CooccurrenceIndex) DocFreq(v string) int { return len(x.columns[v]) }

// CoFreq returns |C(u) ∩ C(v)|: the number of columns containing both
// normalized values.
func (x *CooccurrenceIndex) CoFreq(u, v string) int {
	a, b := x.columns[u], x.columns[v]
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	// a is shorter. Galloping intersection keeps this cheap for skewed lists.
	count := 0
	lo := 0
	for _, id := range a {
		i := lo + sort.Search(len(b)-lo, func(k int) bool { return b[lo+k] >= id })
		if i < len(b) && b[i] == id {
			count++
			lo = i + 1
		} else {
			lo = i
		}
		if lo >= len(b) {
			break
		}
	}
	return count
}

// PMI returns the pointwise mutual information of two normalized values, or
// negative infinity if they never co-occur or either is unseen.
func (x *CooccurrenceIndex) PMI(u, v string) float64 {
	co := x.CoFreq(u, v)
	if co == 0 || x.n == 0 {
		return math.Inf(-1)
	}
	pu := float64(x.DocFreq(u)) / float64(x.n)
	pv := float64(x.DocFreq(v)) / float64(x.n)
	puv := float64(co) / float64(x.n)
	return math.Log(puv / (pu * pv))
}

// NPMI returns the normalized PMI of two normalized values in [-1, 1].
// Values that never co-occur score -1. Identical values with non-zero
// frequency score their self-association (1 for values that always co-occur
// with themselves, which is definitionally true).
func (x *CooccurrenceIndex) NPMI(u, v string) float64 {
	co := x.CoFreq(u, v)
	if co == 0 || x.n == 0 {
		return -1
	}
	puv := float64(co) / float64(x.n)
	if puv >= 1 {
		return 1
	}
	pmi := x.PMI(u, v)
	return pmi / (-math.Log(puv))
}
