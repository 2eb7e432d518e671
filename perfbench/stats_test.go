package main

import (
	"math"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{10000, 99, 99},
		{1000, 99, 99}, // exactly 10 beyond
		{999, 99, 95},
		{200, 99, 95},
		{199, 99, 90},
		{100, 90, 90},
		{99, 90, 75},
		{20, 99, 50},
		{19, 99, 0},
		{100000, 99.9, 99.9},
		{100000, 50, 50},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n, c.want); got != c.got {
			t.Errorf("highestPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (10 samples beyond)", got)
	}
	if got := percentile(v, 50); got != 500 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Fatalf("p99 of one sample = %v", got)
	}
}

func TestSummarizeCountsFailuresAsMisses(t *testing.T) {
	v := make([]float64, 990)
	for i := range v {
		v[i] = 1
	}
	d := summarize(v, 10, 99)
	if d.N != 1000 || d.TailP != 99 || d.Tail != 1 {
		t.Fatalf("10 failures of 1000 leave p99 at the last success: %+v", d)
	}
	d = summarize(v, 11, 99)
	if !math.IsInf(d.Tail, 1) {
		t.Fatalf("11 failures of 1001 must put p99 at +Inf: %+v", d)
	}
	if d.P50 != 1 {
		t.Fatalf("median unaffected by a few failures: %+v", d)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("empty median must be NaN")
	}
}

func TestLateness(t *testing.T) {
	due := []int64{0, 1e6, 2e6, 3e6}
	sent := []int64{5e5, 1e6, 1.5e6, 6e6}
	got := lateness(due, sent)
	want := []float64{0.5, 0, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lateness[%d] = %v, want %v (early sends count as on time)", i, got[i], want[i])
		}
	}
}

// steady builds a rung where each request due every 1ms finishes after
// service ms.
func steady(n int, service func(i int) int64) (due, end []int64, ok []bool) {
	for i := 0; i < n; i++ {
		due = append(due, int64(i)*1e6)
		end = append(end, int64(i)*1e6+service(i))
		ok = append(ok, true)
	}
	return
}

func TestBacklogGrowing(t *testing.T) {
	due, end, ok := steady(1000, func(int) int64 { return 3e5 })
	if backlogGrowing(due, end, ok) {
		t.Fatal("a server keeping up has no growing backlog")
	}
	// The server completes one request every 1.25ms: the queue grows.
	due, end, ok = steady(1000, func(i int) int64 { return int64(i) * 25e4 })
	if !backlogGrowing(due, end, ok) {
		t.Fatal("a server falling behind must show a growing backlog")
	}
	// Requests that fail never complete and count as backlog.
	due, end, ok = steady(1000, func(int) int64 { return 3e5 })
	for i := 500; i < 1000; i++ {
		ok[i] = false
	}
	if !backlogGrowing(due, end, ok) {
		t.Fatal("failures in the second half must count as backlog")
	}
}

func TestLadderVerdict(t *testing.T) {
	good := rung{Rate: 100, Lat: dist{N: 1000, P50: 1, Tail: 4, TailP: 99}}
	if !rungPasses(good, 5) {
		t.Fatal("tail within the SLO with no failures must pass")
	}
	slow := good
	slow.Lat.Tail = 6
	if rungPasses(slow, 5) {
		t.Fatal("tail beyond the SLO must fail")
	}
	failed := good
	failed.Lat.Failed = 1
	if rungPasses(failed, 5) {
		t.Fatal("any failure must fail the rung")
	}
	growing := good
	growing.Growing = true
	if rungPasses(growing, 5) {
		t.Fatal("a growing backlog must fail the rung")
	}
	short := good
	short.Lat.TailP = 0
	if rungPasses(short, 5) {
		t.Fatal("a rung too short for any tail percentile must fail")
	}
	r2, r3 := good, good
	r2.Rate, r3.Rate = 200, 300
	if got := maxPassingRate([]rung{good, r2, r3}, 5); got != 300 {
		t.Fatalf("all pass: max = %v", got)
	}
	r2.Growing = true
	if got := maxPassingRate([]rung{good, r2, r3}, 5); got != 100 {
		t.Fatalf("the ladder stops at the first failing rung: max = %v", got)
	}
	if got := maxPassingRate([]rung{slow, good}, 5); got != 0 {
		t.Fatalf("first rung failing gives 0, got %v", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "apps", Start: 0, End: 100},
		// Two parallel children overlapping on [30,50]: union [10,70].
		{ID: 2, Parent: 1, Name: "index", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "index", Start: 30, End: 70},
		// A child running past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "index", Start: 90, End: 130},
		// A grandchild does not reduce the grandparent directly.
		{ID: 5, Parent: 2, Name: "snapshot", Start: 20, End: 40},
	}
	self := selfTimes(spans)
	if self[1] != 100-60-10 {
		t.Fatalf("parent self = %d, want 30", self[1])
	}
	if self[2] != 40-20 {
		t.Fatalf("child self = %d, want 20", self[2])
	}
	if self[3] != 40 || self[5] != 20 {
		t.Fatalf("leaf self times = %d, %d", self[3], self[5])
	}
	if self[4] != 40 {
		t.Fatalf("leaf self is its full duration, got %d", self[4])
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	iv := [][2]int64{{0, 10}, {20, 30}, {22, 25}}
	if got := covered(iv, 0, 100); got != 20 {
		t.Fatalf("covered = %d, want 20", got)
	}
	if got := covered(iv, 5, 21); got != 6 {
		t.Fatalf("clipped covered = %d, want 6", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Fatalf("empty covered = %d", got)
	}
}
