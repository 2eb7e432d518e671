package stats

import (
	"cmp"
	"slices"

	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// CoherenceCounts keeps, for every column of a growing corpus, the counts
// ColumnCoherence reads: the document frequency of each sampled value and
// the co-occurrence frequency of each sampled pair. Appending tables bumps
// those counts exactly, touching only the columns that share a sampled
// value with an appended column, so every column can be re-scored under the
// new N without recomputing a single posting-list intersection. Column IDs
// are dense in table order, as in CooccurrenceIndex.
type CoherenceCounts struct {
	cols []sampleCounts
	// inv maps a sampled value to every (column, sample position) holding
	// it, over columns with at least two sampled values.
	inv map[string][]sampleRef
	// hits is scratch space for Append.
	hits []sampleRef
}

// sampleCounts are one column's coherence counts. Both include the column
// itself; the scoring discounts it.
type sampleCounts struct {
	df []int32 // |C(v)| per sampled value, in sample order
	co []int32 // |C(u) ∩ C(v)| per sampled pair (i < j), row-major
}

type sampleRef struct {
	col, pos int32
}

// NewCoherenceCounts returns counts over an empty corpus.
func NewCoherenceCounts() *CoherenceCounts {
	return &CoherenceCounts{inv: make(map[string][]sampleRef)}
}

// NumColumns returns the number of columns counted.
func (cc *CoherenceCounts) NumColumns() int { return len(cc.cols) }

// Coherence returns ColumnCoherence of column col over the counted corpus:
// the same value, bit for bit, as x.ColumnCoherence(values) on an index x
// built from the same tables.
func (cc *CoherenceCounts) Coherence(col int) float64 {
	c := &cc.cols[col]
	if len(c.df) < 2 {
		return 1
	}
	k := len(c.df)
	return scoreSample(len(cc.cols), c.df, func(i, j int) int32 { return c.co[pairIndex(k, i, j)] })
}

// Append counts the columns of tables, the next tables of the corpus. x
// must index the corpus including them (call x.Append first): the appended
// columns' own counts are read from it. Counts of earlier columns are
// bumped by every appended column that contains their sampled values, so
// the result equals counting the whole corpus afresh.
func (cc *CoherenceCounts) Append(x *CooccurrenceIndex, tables []*table.Table) {
	for _, t := range tables {
		for ci := range t.Columns {
			cc.bump(t.Columns[ci].Values)
		}
	}
	// Only now add the appended columns to inv: their counts come from x,
	// which already includes every appended column.
	for _, t := range tables {
		for ci := range t.Columns {
			cc.add(x, t.Columns[ci].Values)
		}
	}
}

// bump adds one appended column's occurrences to the counts of the
// columns already held.
func (cc *CoherenceCounts) bump(values []string) {
	hits := cc.hits[:0]
	seen := make(map[string]struct{}, len(values))
	for _, v := range values {
		nv := textnorm.Normalize(v)
		if nv == "" {
			continue
		}
		if _, ok := seen[nv]; ok {
			continue
		}
		seen[nv] = struct{}{}
		for _, r := range cc.inv[nv] {
			cc.cols[r.col].df[r.pos]++
			hits = append(hits, r)
		}
	}
	// Every pair of sampled values of one column that this column holds
	// together co-occurs once more.
	slices.SortFunc(hits, func(a, b sampleRef) int {
		if c := cmp.Compare(a.col, b.col); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	for lo := 0; lo < len(hits); {
		hi := lo + 1
		for hi < len(hits) && hits[hi].col == hits[lo].col {
			hi++
		}
		c := &cc.cols[hits[lo].col]
		for a := lo; a < hi; a++ {
			for b := a + 1; b < hi; b++ {
				c.co[pairIndex(len(c.df), int(hits[a].pos), int(hits[b].pos))]++
			}
		}
		lo = hi
	}
	cc.hits = hits
}

// add counts one appended column from the index.
func (cc *CoherenceCounts) add(x *CooccurrenceIndex, values []string) {
	col := int32(len(cc.cols))
	sample := appendSample(make([]string, 0, MaxCoherenceSample), values)
	if len(sample) < 2 {
		cc.cols = append(cc.cols, sampleCounts{})
		return
	}
	k := len(sample)
	c := sampleCounts{df: make([]int32, k), co: make([]int32, k*(k-1)/2)}
	for i, v := range sample {
		c.df[i] = int32(x.DocFreq(v))
		cc.inv[v] = append(cc.inv[v], sampleRef{col: col, pos: int32(i)})
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if c.df[i] == 1 || c.df[j] == 1 {
				// A value held by this column alone co-occurs only here.
				c.co[pairIndex(k, i, j)] = 1
				continue
			}
			c.co[pairIndex(k, i, j)] = int32(x.CoFreq(sample[i], sample[j]))
		}
	}
	cc.cols = append(cc.cols, c)
}

// pairIndex is the row-major position of pair (i, j), i < j, among the
// k(k-1)/2 pairs of k values.
func pairIndex(k, i, j int) int {
	return i*(2*k-i-1)/2 + j - i - 1
}
