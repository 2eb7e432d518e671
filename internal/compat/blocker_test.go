package compat

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mapsynth/internal/pool"
)

// hubCandidates builds n candidates that share the left value "hub" when
// i < hubbed, further pair keys and left values in groups of three, and one
// left value in pairs, so the blocked pair set differs between the hub
// posting list being under and over the cap.
func hubCandidates(rng *rand.Rand, n, hubbed int) []*Candidate {
	out := make([]*Candidate, n)
	for i := range out {
		g := i / 3
		pairs := [][2]string{
			{fmt.Sprintf("group%d", g), fmt.Sprintf("value%d", g)},
			{fmt.Sprintf("second%d", g), fmt.Sprintf("other%d", g)},
			{fmt.Sprintf("own%d", i), fmt.Sprintf("mine%d", rng.Intn(4))},
			// Pairs across groups share one left value: blocked on w-
			// only while "hub" counts too.
			{fmt.Sprintf("link%d", i/2), fmt.Sprintf("end%d", i)},
		}
		if i < hubbed {
			pairs = append(pairs, [2]string{"hub", fmt.Sprintf("spoke%d", rng.Intn(3))})
		}
		if rng.Intn(4) == 0 {
			pairs[1][1] = fmt.Sprintf("clash%d", i) // a conflict inside the group
		}
		out[i] = PrecomputeOne(i, binFromPairs(i, pairs))
	}
	return out
}

// requireBlockerMatches checks the blocker's edges over the active handles
// against BuildGraph over the same candidates in handle order, returning
// the number of edges.
func requireBlockerMatches(t *testing.T, step string, bl *Blocker, all []*Candidate, active map[int32]bool, opt Options) int {
	t.Helper()
	var handles []int32
	for h := range active {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
	dense := make(map[int32]int, len(handles))
	cands := make([]*Candidate, len(handles))
	for d, h := range handles {
		all[h].ID = d
		dense[h] = d
		cands[d] = all[h]
	}
	if err := bl.Score(context.Background(), pool.New(2)); err != nil {
		t.Fatal(err)
	}
	got := map[[2]int]Weights{}
	bl.Edges(func(a, b int32, w Weights) {
		x, y := dense[a], dense[b]
		if x > y {
			x, y = y, x
		}
		got[[2]int{x, y}] = w
	})
	want := map[[2]int]Weights{}
	for _, e := range BuildGraph(cands, opt, 1).Edges() {
		want[[2]int{e.A, e.B}] = Weights{Pos: e.Pos, Neg: e.Neg}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: blocker has %d edges, BuildGraph %d", step, len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("%s: edge %v = %+v, want %+v", step, k, got[k], w)
		}
	}
	return len(want)
}

// TestBlockerMatchesBuildGraph drives one posting list above MaxPostingLen
// and back below it through additions and removals, requiring after every
// step exactly the edges a from-scratch BuildGraph produces.
func TestBlockerMatchesBuildGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, hubbed = MaxPostingLen + 60, MaxPostingLen + 30
	all := hubCandidates(rng, n, hubbed)
	opt := DefaultOptions()
	bl := NewBlocker(opt)
	active := map[int32]bool{}
	add := func(hs ...int) {
		for _, h := range hs {
			bl.Add(int32(h), all[h])
			active[int32(h)] = true
		}
	}
	remove := func(hs ...int) {
		for _, h := range hs {
			bl.Remove(int32(h))
			delete(active, int32(h))
		}
	}
	span := func(lo, hi int) []int {
		var out []int
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}

	add(span(0, MaxPostingLen-1)...)
	under := requireBlockerMatches(t, "hub list below the cap", bl, all, active, opt)
	add(span(MaxPostingLen-1, MaxPostingLen+10)...)
	over := requireBlockerMatches(t, "hub list over the cap", bl, all, active, opt)
	if under == 0 || over == 0 {
		t.Fatalf("edges under the cap %d, over it %d: nothing to compare", under, over)
	}

	remove(span(100, 110)...)
	requireBlockerMatches(t, "hub list back at the cap", bl, all, active, opt)

	remove(3, 4, 5, 500)
	add(n-1, 100, 101)
	requireBlockerMatches(t, "removals and re-admissions", bl, all, active, opt)

	perm := rng.Perm(n)
	for _, h := range perm[:40] {
		if active[int32(h)] {
			remove(h)
		} else {
			add(h)
		}
	}
	requireBlockerMatches(t, "random churn", bl, all, active, opt)
}

// TestBlockerScoreCancelKeepsQueue: a cancelled Score leaves the pending
// pairs queued, so the next Score still weighs them.
func TestBlockerScoreCancelKeepsQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := hubCandidates(rng, 30, 0)
	opt := DefaultOptions()
	bl := NewBlocker(opt)
	active := map[int32]bool{}
	for h := range all {
		bl.Add(int32(h), all[h])
		active[int32(h)] = true
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := bl.Score(ctx, pool.New(2)); err == nil {
		t.Fatal("Score on a cancelled context succeeded")
	}
	requireBlockerMatches(t, "after a cancelled Score", bl, all, active, opt)
}
