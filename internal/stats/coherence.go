package stats

import (
	"math"

	"mapsynth/internal/textnorm"
)

// MaxCoherenceSample bounds the number of distinct values sampled per column
// when computing coherence; all-pairs NPMI over very long columns would be
// quadratic. Sampling the first k distinct values preserves the signal
// because incoherence (mixed concepts) shows up in any sizeable sample.
const MaxCoherenceSample = 30

// ColumnCoherence computes S(C) (Equation 2): the average pairwise NPMI over
// the column's distinct normalized values. Columns with fewer than two
// distinct values are vacuously coherent and score 1. For columns with more
// than MaxCoherenceSample distinct values, the first MaxCoherenceSample in
// order of appearance are used.
//
// Because the scored column is itself part of the index, each value pair's
// co-occurrence count is discounted by one (and each value's document
// frequency likewise): the question the filter asks is whether the values
// co-occur anywhere *else* in the corpus. Without the discount, a column of
// unique garbage would score NPMI ≈ 1 from its own self-co-occurrence.
func (x *CooccurrenceIndex) ColumnCoherence(values []string) float64 {
	var sampleBuf [MaxCoherenceSample]string
	sample := appendSample(sampleBuf[:0], values)
	if len(sample) < 2 {
		return 1
	}
	var dfBuf [MaxCoherenceSample]int32
	df := dfBuf[:len(sample)]
	for i, v := range sample {
		df[i] = int32(x.DocFreq(v))
	}
	return scoreSample(x.n, df, func(i, j int) int32 {
		return int32(x.CoFreq(sample[i], sample[j]))
	})
}

// appendSample appends the values ColumnCoherence scores to distinct,
// which must be empty: the column's distinct non-empty normalized values,
// the first MaxCoherenceSample of them in order of appearance.
func appendSample(distinct, values []string) []string {
	seen := make(map[string]struct{}, MaxCoherenceSample)
	for _, v := range values {
		nv := textnorm.Normalize(v)
		if nv == "" {
			continue
		}
		if _, ok := seen[nv]; ok {
			continue
		}
		seen[nv] = struct{}{}
		distinct = append(distinct, nv)
		if len(distinct) >= MaxCoherenceSample {
			break
		}
	}
	return distinct
}

// scoreSample averages the discounted NPMI over every pair (i < j) of a
// column's sampled values, given N, each value's document frequency df[i]
// and a co-occurrence lookup co(i, j), all counting the scored column
// itself. co is consulted only for pairs whose values both occur outside
// the column. ColumnCoherence and CoherenceCounts both score through here,
// so the two agree bit for bit.
//
// Because the scored column is itself part of the index, each count is
// discounted by one: the question the filter asks is whether the values
// co-occur anywhere *else* in the corpus. Pairs with a value that never
// appears outside the column carry no evidence about coherence and are
// skipped (at web scale every real value occurs elsewhere; at laptop scale
// long-tail synonyms may not).
func scoreSample(n int, df []int32, co func(i, j int) int32) float64 {
	var sum float64
	var pairs int
	for i := 0; i < len(df); i++ {
		for j := i + 1; j < len(df); j++ {
			du, dv := df[i]-1, df[j]-1
			if du <= 0 || dv <= 0 {
				continue // no evidence either way; neutral
			}
			sum += npmiDiscounted(n, du, dv, co(i, j)-1)
			pairs++
		}
	}
	if pairs == 0 {
		// No value pair has any corpus evidence outside this column:
		// treat as neutral rather than incoherent (rare long-tail columns).
		return 0
	}
	return sum / float64(pairs)
}

// npmiDiscounted is NPMI over discounted counts: du and dv are the values'
// document frequencies outside the scored column (both positive), c their
// co-occurrence frequency outside it.
func npmiDiscounted(n int, du, dv, c int32) float64 {
	if c <= 0 || n <= 1 {
		// Both values are known elsewhere but never together: strong
		// evidence of incoherence.
		return -1
	}
	nf := float64(n)
	puv := float64(c) / nf
	if puv >= 1 {
		return 1
	}
	pu := float64(du) / nf
	pv := float64(dv) / nf
	pmi := math.Log(puv / (pu * pv))
	return pmi / (-math.Log(puv))
}
