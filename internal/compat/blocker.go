package compat

import (
	"context"
	"slices"

	"mapsynth/internal/pool"
)

// Blocker maintains inverted-index blocking and the weights of the blocked
// pairs over a candidate set that changes by small additions and removals,
// the incremental twin of BlockedPairs + BuildGraphCtx. Candidates are
// named by caller-chosen handles (small non-negative integers) that stay
// fixed while the candidate's dense ID shifts between runs; a candidate's
// content must never change under its handle.
//
// Per blocking key it keeps the posting list of handles. Two candidates'
// shared-key count, exactly as blockBy counts it, includes only posting
// lists of 2..MaxPostingLen handles. Adding a candidate counts its pairs
// from its own posting lists; removing one drops its pairs. Other pairs'
// counts move only when a list crosses MaxPostingLen, and then the pairs
// within that list are recounted. Only blocked pairs are kept, each with
// its w+ and w-, scored once when the pair becomes blocked — so an update
// scores only the pairs involving a newly added candidate.
type Blocker struct {
	opt   Options
	theta int
	cp    *Computer
	cands []*Candidate // by handle; nil when absent
	// post[kind] maps a blocking key to the handles holding it: kind 0 is
	// the w+ blocking on pair keys, kind 1 the w- blocking on left values.
	post [2]map[string][]int32
	// pairs holds every pair blocked on either kind.
	pairs map[uint64]pairState
	// queue lists pairs that became blocked without a cached weight; Score
	// drains it.
	queue []uint64
	// changed lists the handles of pairs whose blocking changed since the
	// last TakeChanged, with repeats.
	changed []int32
	// counts is scratch space for Add.
	counts map[int32]int
}

// pairState is one blocked handle pair: per blocking kind, whether it is
// blocked and whether its weight (w.Pos for kind 0, w.Neg for kind 1) has
// been scored.
type pairState struct {
	w       Weights
	blocked [2]bool
	scored  [2]bool
	queued  bool
}

// NewBlocker returns an empty Blocker scoring with opt.
func NewBlocker(opt Options) *Blocker {
	return &Blocker{
		opt:    opt,
		theta:  max(opt.ThetaOverlap, 1),
		cp:     NewComputer(opt),
		post:   [2]map[string][]int32{make(map[string][]int32), make(map[string][]int32)},
		pairs:  make(map[uint64]pairState),
		counts: make(map[int32]int),
	}
}

func blockingKeys(c *Candidate, kind int) []string {
	if kind == 0 {
		return c.PairKeys
	}
	return c.LeftKeys
}

// Add inserts candidate c under handle h, which must be absent.
func (bl *Blocker) Add(h int32, c *Candidate) {
	if int(h) >= len(bl.cands) {
		bl.cands = append(bl.cands, make([]*Candidate, int(h)+1-len(bl.cands))...)
	}
	bl.cands[h] = c
	for kind := range bl.post {
		post := bl.post[kind]
		clear(bl.counts)
		var crossed [][]int32
		for _, k := range blockingKeys(c, kind) {
			ids := post[k]
			switch {
			case len(ids) < MaxPostingLen:
				for _, y := range ids {
					bl.counts[y]++
				}
			case len(ids) == MaxPostingLen:
				// The list grows past the cap: its pairs stop counting it.
				crossed = append(crossed, ids)
			}
			post[k] = append(ids, h)
		}
		for y, n := range bl.counts {
			if n >= bl.theta {
				bl.setBlocked(kind, h, y, true)
			}
		}
		for _, ids := range crossed {
			bl.recount(kind, ids[:MaxPostingLen], true)
		}
	}
}

// Remove deletes the candidate under handle h, which must be present.
func (bl *Blocker) Remove(h int32) {
	c := bl.cands[h]
	for kind := range bl.post {
		post := bl.post[kind]
		var crossed [][]int32
		for _, k := range blockingKeys(c, kind) {
			ids := post[k]
			n := len(ids)
			if n <= MaxPostingLen {
				for _, y := range ids {
					if y != h {
						bl.setBlocked(kind, h, y, false)
					}
				}
			}
			i := slices.Index(ids, h)
			ids[i] = ids[n-1]
			ids = ids[:n-1]
			if len(ids) == 0 {
				delete(post, k)
				continue
			}
			post[k] = ids
			if n == MaxPostingLen+1 {
				// The list shrinks back to the cap: its pairs count it again.
				crossed = append(crossed, ids)
			}
		}
		for _, ids := range crossed {
			bl.recount(kind, ids, false)
		}
	}
	bl.cands[h] = nil
}

// recount re-decides the blocking of every pair within ids after one list
// holding them all crossed the cap. Crossing upward only lowers shared
// counts, so only blocked pairs are recounted; crossing downward only
// raises them, so only unblocked ones are.
func (bl *Blocker) recount(kind int, ids []int32, blocked bool) {
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			a, b := ids[i], ids[j]
			if bl.pairs[handlePair(a, b)].blocked[kind] != blocked {
				continue
			}
			bl.setBlocked(kind, a, b, bl.shared(kind, a, b) >= bl.theta)
		}
	}
}

// shared counts the blocking keys of one kind that a and b share on
// posting lists within the cap — the count blockBy accumulates.
func (bl *Blocker) shared(kind int, a, b int32) int {
	ka, kb := blockingKeys(bl.cands[a], kind), blockingKeys(bl.cands[b], kind)
	n := 0
	for i, j := 0, 0; i < len(ka) && j < len(kb); {
		switch {
		case ka[i] < kb[j]:
			i++
		case ka[i] > kb[j]:
			j++
		default:
			if len(bl.post[kind][ka[i]]) <= MaxPostingLen {
				n++
			}
			i++
			j++
		}
	}
	return n
}

func handlePair(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(uint32(b))
}

// setBlocked records whether a pair is blocked on one kind, queueing it for
// scoring when it becomes blocked without a cached weight and forgetting it
// once it is blocked on neither kind.
func (bl *Blocker) setBlocked(kind int, a, b int32, blocked bool) {
	key := handlePair(a, b)
	st, ok := bl.pairs[key]
	if st.blocked[kind] == blocked {
		return
	}
	st.blocked[kind] = blocked
	bl.changed = append(bl.changed, a, b)
	if st.blocked == [2]bool{} {
		if ok {
			delete(bl.pairs, key)
		}
		return
	}
	if blocked && !st.scored[kind] && !st.queued {
		st.queued = true
		bl.queue = append(bl.queue, key)
	}
	bl.pairs[key] = st
}

// Score computes the weights of every pair blocked since the last Score,
// in parallel on p. Weights are oriented by the candidates' current dense
// IDs (Candidate.ID), lower first, as BuildGraphCtx orients them; callers
// must have set the IDs, whose relative order must never change. On
// cancellation the pending pairs stay queued for the next call.
func (bl *Blocker) Score(ctx context.Context, p *pool.Pool) error {
	slices.Sort(bl.queue)
	bl.queue = slices.Compact(bl.queue)
	type job struct {
		key      uint64
		pos, neg bool
		w        Weights
	}
	jobs := make([]job, 0, len(bl.queue))
	for _, key := range bl.queue {
		st, ok := bl.pairs[key]
		if !ok {
			continue
		}
		j := job{
			key: key,
			pos: st.blocked[0] && !st.scored[0],
			neg: st.blocked[1] && !st.scored[1],
		}
		if j.pos || j.neg {
			jobs = append(jobs, j)
		}
	}
	if err := p.ForEach(ctx, len(jobs), func(i int) {
		j := &jobs[i]
		a, b := bl.cands[j.key>>32], bl.cands[uint32(j.key)]
		if a.ID > b.ID {
			a, b = b, a
		}
		if j.pos {
			if pw := bl.cp.Positive(a, b); pw >= bl.opt.ThetaEdge {
				j.w.Pos = pw
			}
		}
		if j.neg {
			j.w.Neg = bl.cp.Negative(a, b)
		}
	}); err != nil {
		return err
	}
	for _, key := range bl.queue {
		if st, ok := bl.pairs[key]; ok {
			st.queued = false
			bl.pairs[key] = st
		}
	}
	for _, j := range jobs {
		st := bl.pairs[j.key]
		if j.pos {
			st.w.Pos, st.scored[0] = j.w.Pos, true
		}
		if j.neg {
			st.w.Neg, st.scored[1] = j.w.Neg, true
		}
		bl.pairs[j.key] = st
	}
	bl.queue = bl.queue[:0]
	return nil
}

// Edges calls fn for every blocked pair with a non-zero weight: w+ when
// the pair is blocked on pair keys, w- when blocked on left values — the
// edge set BuildGraphCtx builds over the same candidates. Handles come in
// no particular order. Call Score first.
func (bl *Blocker) Edges(fn func(a, b int32, w Weights)) {
	for key, st := range bl.pairs {
		var w Weights
		if st.blocked[0] {
			w.Pos = st.w.Pos
		}
		if st.blocked[1] {
			w.Neg = st.w.Neg
		}
		if w != (Weights{}) {
			fn(int32(key>>32), int32(uint32(key)), w)
		}
	}
}

// TakeChanged returns, with repeats, every handle that gained or lost a
// blocked pair since the last call, and forgets them. A candidate absent
// from the list has kept exactly its edges: a blocked pair's weights never
// change while it stays blocked.
func (bl *Blocker) TakeChanged() []int32 {
	out := bl.changed
	bl.changed = nil
	return out
}
