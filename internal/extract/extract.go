// Package extract implements candidate table extraction (Section 3,
// Algorithm 1): from every corpus table it derives ordered two-column
// candidates, filtering incoherent columns with NPMI coherence (Section 3.1)
// and non-functional column pairs with approximate FD checking (Section 3.2).
package extract

import (
	"context"

	"mapsynth/internal/fd"
	"mapsynth/internal/pool"
	"mapsynth/internal/stats"
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// Options configures candidate extraction.
type Options struct {
	// CoherenceThreshold is the minimum column coherence S(C); columns
	// scoring below it are removed before pair generation. The NPMI range
	// is [-1, 1]; mixed-concept columns land near or below 0.
	CoherenceThreshold float64
	// ThetaFD is the approximate-FD threshold θ (paper: 0.95).
	ThetaFD float64
	// MinPairs drops candidates with fewer distinct value pairs; tiny
	// tables carry no statistical signal (paper tables are "for human
	// consumption" but still have several rows).
	MinPairs int
	// MaxDistinctRightRatio guards against key→key pairs that trivially
	// satisfy FDs without being mappings (e.g. row-number → anything):
	// a candidate is dropped when both directions are perfectly functional
	// AND every left value is unique AND every right value is unique AND
	// the values look numeric. Set to 0 to disable numeric filtering.
	SkipNumericColumns bool
}

// DefaultOptions returns the options used throughout the paper's
// experiments: θ = 0.95, a mildly positive coherence threshold, and
// candidates with at least 4 value pairs.
func DefaultOptions() Options {
	return Options{
		CoherenceThreshold: -0.3,
		ThetaFD:            fd.DefaultTheta,
		MinPairs:           4,
		SkipNumericColumns: true,
	}
}

// Stats reports what extraction did, reproducing the paper's observation
// that roughly 78% of column pairs are pruned by the two filters.
type Stats struct {
	Tables          int // input tables scanned
	ColumnsTotal    int // columns seen
	ColumnsDropped  int // columns removed by the coherence filter
	PairsRaw        int // all ordered column pairs before any filtering
	PairsTotal      int // ordered column pairs left after column filtering
	PairsFDRejected int // pairs rejected by the approximate-FD filter
	PairsTooSmall   int // pairs rejected for having < MinPairs distinct pairs
	PairsNumeric    int // pairs rejected by the numeric filter
	Candidates      int // surviving candidates
}

// FilterRate returns the fraction of raw ordered pairs pruned by the PMI
// and FD filters combined (the paper reports ~78% on its web corpus).
func (s Stats) FilterRate() float64 {
	if s.PairsRaw == 0 {
		return 0
	}
	return float64(s.PairsRaw-s.Candidates) / float64(s.PairsRaw)
}

// Add accumulates another Stats into s — used to merge per-table stats from
// parallel extraction workers. Tables and Candidates are deliberately not
// summed: they describe the whole extraction run and are set once by the
// caller that knows the corpus size and final candidate count.
func (s *Stats) Add(o Stats) {
	s.ColumnsTotal += o.ColumnsTotal
	s.ColumnsDropped += o.ColumnsDropped
	s.PairsRaw += o.PairsRaw
	s.PairsTotal += o.PairsTotal
	s.PairsFDRejected += o.PairsFDRejected
	s.PairsTooSmall += o.PairsTooSmall
	s.PairsNumeric += o.PairsNumeric
}

// Extractor turns corpus tables into candidate binary tables.
type Extractor struct {
	opt Options
	idx *stats.CooccurrenceIndex
}

// New returns an Extractor over the corpus co-occurrence index. The index
// must have been built from the same corpus the tables come from (or a
// superset) so coherence scores are meaningful.
func New(idx *stats.CooccurrenceIndex, opt Options) *Extractor {
	return &Extractor{opt: opt, idx: idx}
}

// ExtractAll runs Algorithm 1 over the whole corpus and returns the
// candidate set with IDs assigned densely in deterministic order, plus
// extraction statistics.
func (e *Extractor) ExtractAll(tables []*table.Table) ([]*table.BinaryTable, Stats) {
	out, st, _ := e.ExtractAllParallel(context.Background(), tables, pool.New(1))
	return out, st
}

// ExtractTable runs Algorithm 1 over a single table. Candidate IDs are
// assigned densely from 0 in the table's own extraction order; callers
// fanning out over many tables renumber afterwards (see ExtractAllParallel).
func (e *Extractor) ExtractTable(t *table.Table) ([]*table.BinaryTable, Stats) {
	keep := make([]bool, len(t.Columns))
	for ci := range t.Columns {
		keep[ci] = e.Coherent(e.idx.ColumnCoherence(t.Columns[ci].Values))
	}
	var out []*table.BinaryTable
	st := ScanTable(t, keep,
		func(i, j int) (PairVerdict, *table.BinaryTable) { return e.CheckPair(t, i, j) },
		func(_, _ int, b *table.BinaryTable) {
			b.ID = len(out)
			out = append(out, b)
		})
	st.Tables = 1
	st.Candidates = len(out)
	return out, st
}

// ExtractAllParallel is ExtractAll with the per-table work fanned out over
// the worker pool. Output is deterministic and identical to a sequential
// pass regardless of worker count: per-table results land in table order
// and candidate IDs are reassigned densely in that order afterwards. On
// cancellation it returns ctx's error and partial results must be ignored.
func (e *Extractor) ExtractAllParallel(ctx context.Context, tables []*table.Table, p *pool.Pool) ([]*table.BinaryTable, Stats, error) {
	perTable := make([][]*table.BinaryTable, len(tables))
	perStats := make([]Stats, len(tables))
	if err := p.ForEach(ctx, len(tables), func(i int) {
		perTable[i], perStats[i] = e.ExtractTable(tables[i])
	}); err != nil {
		return nil, Stats{}, err
	}
	var out []*table.BinaryTable
	var st Stats
	nextID := 0
	for i := range perTable {
		for _, b := range perTable[i] {
			b.ID = nextID
			nextID++
			out = append(out, b)
		}
		st.Add(perStats[i])
	}
	st.Tables = len(tables)
	st.Candidates = len(out)
	return out, st, nil
}

// Coherent reports whether a column with coherence score s survives the
// coherence filter (Section 3.1).
func (e *Extractor) Coherent(s float64) bool {
	return !(s < e.opt.CoherenceThreshold)
}

// PairVerdict is the outcome of the pair filters (Section 3.2) for one
// ordered pair of coherent columns.
type PairVerdict uint8

const (
	// PairUnchecked is the zero value: no verdict yet.
	PairUnchecked PairVerdict = iota
	// PairCandidate: the pair passed every filter.
	PairCandidate
	// PairNotFunctional: the approximate FD fails, or the right column is
	// constant.
	PairNotFunctional
	// PairTooSmall: fewer than MinPairs distinct value pairs.
	PairTooSmall
	// PairNumeric: rejected by the numeric filter.
	PairNumeric
)

// CheckPair applies the FD, size and numeric filters to the ordered column
// pair (i, j) of t and returns the verdict, with the candidate (ID 0) when
// it passes. The verdict depends on the two columns alone, never on the
// co-occurrence index, so it can be cached per table.
func (e *Extractor) CheckPair(t *table.Table, i, j int) (PairVerdict, *table.BinaryTable) {
	ci, cj := &t.Columns[i], &t.Columns[j]
	res := fd.Check(ci.Values, cj.Values)
	if !res.Holds(e.opt.ThetaFD) {
		return PairNotFunctional, nil
	}
	// A functional pair with a single distinct right value for many lefts
	// is usually a constant column, not a mapping.
	if res.DistinctLeft >= 3 && res.DistinctRight == 1 {
		return PairNotFunctional, nil
	}
	b := table.NewBinaryTable(0, t.ID, t.Domain, ci.Name, cj.Name, ci.Values, cj.Values)
	if b.Size() < e.opt.MinPairs {
		return PairTooSmall, nil
	}
	if e.opt.SkipNumericColumns && (mostlyNumericPairs(b) || rowNumberColumn(b)) {
		return PairNumeric, nil
	}
	return PairCandidate, b
}

// ScanTable runs Algorithm 1's pair loop over t given which columns passed
// the coherence filter (keep[ci]): every ordered pair of kept columns is
// judged by check, and the candidates are passed to emit in extraction
// order. It returns the table's filtering counts; Tables and Candidates
// are left for the caller, as in Stats.Add.
func ScanTable(t *table.Table, keep []bool, check func(i, j int) (PairVerdict, *table.BinaryTable), emit func(i, j int, b *table.BinaryTable)) Stats {
	var st Stats
	st.ColumnsTotal = len(t.Columns)
	st.PairsRaw = len(t.Columns) * (len(t.Columns) - 1)
	for _, k := range keep {
		if !k {
			st.ColumnsDropped++
		}
	}
	for i := range t.Columns {
		if !keep[i] {
			continue
		}
		for j := range t.Columns {
			if i == j || !keep[j] {
				continue
			}
			st.PairsTotal++
			switch v, b := check(i, j); v {
			case PairCandidate:
				emit(i, j, b)
			case PairNotFunctional:
				st.PairsFDRejected++
			case PairTooSmall:
				st.PairsTooSmall++
			case PairNumeric:
				st.PairsNumeric++
			}
		}
	}
	return st
}

// mostlyNumericPairs reports whether both sides of the candidate are
// dominated by purely numeric values. Purely numeric two-column tables are
// overwhelmingly measurements or rankings, which the paper's curation step
// prunes ("additional filtering can be performed to further prune out
// numeric and temporal relationships").
func mostlyNumericPairs(b *table.BinaryTable) bool {
	numL, numR := 0, 0
	for _, p := range b.Pairs {
		if isNumeric(p.L) {
			numL++
		}
		if isNumeric(p.R) {
			numR++
		}
	}
	n := len(b.Pairs)
	if n == 0 {
		return false
	}
	return numL*10 >= n*9 && numR*10 >= n*9 // both sides >= 90% numeric
}

// rowNumberColumn reports whether the candidate's left column is a row
// counter: consecutive small integers starting at 1. Such columns trivially
// satisfy FDs against anything without expressing a mapping.
func rowNumberColumn(b *table.BinaryTable) bool {
	seen := make(map[int]struct{}, len(b.Pairs))
	for _, p := range b.Pairs {
		nv := textnorm.Normalize(p.L)
		num := 0
		for _, r := range nv {
			if r < '0' || r > '9' {
				return false
			}
			num = num*10 + int(r-'0')
			if num > 1000 {
				return false
			}
		}
		if nv == "" {
			return false
		}
		seen[num] = struct{}{}
	}
	if len(seen) != len(b.Pairs) {
		return false
	}
	for i := 1; i <= len(seen); i++ {
		if _, ok := seen[i]; !ok {
			return false
		}
	}
	return true
}

// isNumeric reports whether the normalized value consists solely of digits,
// spaces and at most one decimal point per token.
func isNumeric(v string) bool {
	nv := textnorm.Normalize(v)
	if nv == "" {
		return false
	}
	digits := 0
	for _, r := range nv {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == ' ' || r == '.':
		default:
			return false
		}
	}
	return digits > 0
}
