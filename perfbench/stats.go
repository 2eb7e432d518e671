package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail figure may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// highestPercentile returns the highest percentile not above want that has
// at least minBeyond of n samples beyond it, or 0 when n is too small for
// any.
func highestPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of sorted values:
// the smallest value with at least p% of the samples at or below it.
// Failed operations enter sorted as +Inf, so they count as missing any
// latency limit.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// dist is a latency sample set summarized by the benchmark's percentile
// rule.
type dist struct {
	N      int
	Failed int
	P50    float64
	// Tail is the value at TailP, the highest percentile not above the
	// requested one with at least minBeyond samples beyond it.
	Tail  float64
	TailP float64
}

// summarize sorts values (failed operations as +Inf) and reports the
// median and the tail at the highest admissible percentile up to want.
func summarize(values []float64, failed int, want float64) dist {
	all := make([]float64, 0, len(values)+failed)
	all = append(all, values...)
	for i := 0; i < failed; i++ {
		all = append(all, math.Inf(1))
	}
	sort.Float64s(all)
	d := dist{N: len(all), Failed: failed}
	if len(all) == 0 {
		return d
	}
	d.P50 = percentile(all, 50)
	d.TailP = highestPercentile(len(all), want)
	if d.TailP > 0 {
		d.Tail = percentile(all, d.TailP)
	}
	return d
}

// median returns the median of values (mean of the middle two for even
// counts), NaN when empty.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// lateness returns how far behind schedule the generator dispatched each
// operation, in milliseconds: sent minus due, never negative.
func lateness(due, sent []int64) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if d := sent[i] - due[i]; d > 0 {
			out[i] = float64(d) / 1e6
		}
	}
	return out
}

// genBehindMs is the generator lateness p99 beyond which a run is flagged:
// the schedule, not the server, shaped its latencies.
const genBehindMs = 2.0

// backlogAt counts operations due at or before t that had not completed by
// t. end holds completion times; a failed operation never completes.
func backlogAt(due, end []int64, ok []bool, t int64) int {
	n := 0
	for i := range due {
		if due[i] <= t && (!ok[i] || end[i] > t) {
			n++
		}
	}
	return n
}

// backlogGrowing reports whether the queue of due-but-unfinished
// operations grew over the second half of a rung: the backlog at the last
// due time exceeds the backlog at the midpoint by more than slack, where
// slack allows for the requests legitimately in flight.
func backlogGrowing(due, end []int64, ok []bool) bool {
	if len(due) < 2 {
		return false
	}
	first, last := due[0], due[len(due)-1]
	mid := first + (last-first)/2
	slack := 2 + len(due)/100
	return backlogAt(due, end, ok, last) > backlogAt(due, end, ok, mid)+slack
}

// rung is one step of the rate ladder.
type rung struct {
	Rate    float64
	Lat     dist // latency from due, failures as +Inf
	Growing bool
}

// rungPasses is the ladder verdict: no failures, the tail within the SLO
// and no growing backlog. A rung too short for any tail percentile fails.
func rungPasses(r rung, sloMs float64) bool {
	return r.Lat.Failed == 0 && r.Lat.TailP > 0 && r.Lat.Tail <= sloMs && !r.Growing
}

// maxPassingRate returns the highest rate of the leading run of passing
// rungs (rungs are tried in ascending rate order and the ladder stops at
// the first failure), or 0 when the first rung fails.
func maxPassingRate(rungs []rung, sloMs float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if !rungPasses(r, sloMs) {
			break
		}
		best = r.Rate
	}
	return best
}

// span is one timed interval of the traced run. Spans of one request share
// Req; Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// ID: its duration minus the part of its interval that the union of its
// children's intervals covers. Children that overlap each other (parallel
// work) are counted once; parts of a child outside its parent are ignored.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	reach := lo // everything before reach is counted already
	for _, x := range iv {
		if a, b := max(x[0], reach), min(x[1], hi); b > a {
			total += b - a
			reach = b
		}
	}
	return total
}
