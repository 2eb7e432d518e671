package pipeline

import (
	"context"
	"encoding/binary"
	"sort"
	"time"

	"mapsynth/internal/compat"
	"mapsynth/internal/conflict"
	"mapsynth/internal/extract"
	"mapsynth/internal/graph"
	"mapsynth/internal/mapping"
	"mapsynth/internal/stats"
	"mapsynth/internal/synthesis"
	"mapsynth/internal/table"
)

// The incremental path makes an ingest run cost roughly O(new tables)
// without ever changing the answer: its output is byte-identical to
// Engine.Run over the same tables (pinned by tests).
//
// Every candidate binary table has a stable identity: its table's position
// and its left and right column. Tables are append-only and never change,
// so a candidate's content depends only on that key, and ordering by the
// key is the dense candidate-ID order of a full run — tie-breaks that
// compare IDs decide the same way on both paths. Every cache below is
// keyed by stable identity:
//
//   - index: the co-occurrence index and the per-column coherence counts
//     (stats.CoherenceCounts) are appended to; only columns sharing a
//     sampled value with a new column change. Every column is re-scored
//     under the new N, since N moves every NPMI.
//   - extract: each ordered column pair's filter verdict and candidate are
//     computed once per table, the first time both columns are coherent.
//   - graph: each candidate's normalized view, the blocking postings and
//     every blocked pair with its w+/w- persist (compat.Blocker); only
//     pairs involving a new or re-admitted candidate are scored. Each
//     candidate remembers the last run that changed one of its edges.
//   - synthesize: greedy results are cached per compatibility component,
//     keyed by its members' stable identities and replayed only while no
//     member's edges changed — so the edge weights are exactly those the
//     result was computed from. Conflict resolution is cached per
//     partition, keyed by its members' identities.
//
// What stays O(corpus) per run: re-scoring coherence, tallying extraction
// stats, building and decomposing the graph, greedy on dirty components,
// and building the mappings with the current dense IDs.

// IncrementalState carries the caches of an incremental synthesis sequence.
// It is not safe for concurrent use; the ingestion layer serializes runs
// per corpus. The tables slice passed to successive RunIncremental calls
// must be append-only — previously seen prefixes must be identical.
type IncrementalState struct {
	// cfg is the configuration the caches were built under (Workers
	// cleared); a run under any other configuration starts afresh.
	cfg Config
	gen int // runs so far

	idx *stats.CooccurrenceIndex
	coh *stats.CoherenceCounts
	// tables holds the extraction cache per table position.
	tables []tableCache

	// slots interns every candidate ever admitted; a slot number is the
	// candidate's handle in block.
	slots []slotState
	// active lists the slots the last run admitted, in dense-ID order.
	active []int32
	block  *compat.Blocker

	// comps and parts hold component and partition results. Each entry
	// records the last run that used it; every run ends by evicting the
	// entries it and the run before it both left unused.
	comps map[string]*componentResult
	parts map[string]*partResult

	// hits/misses describe the most recent run's component cache.
	hits, misses int
}

// tableCache is one table's extraction state.
type tableCache struct {
	col0 int // index column ID of the table's first column
	// pairs holds the verdict of ordered column pair (i, j) at
	// i*len(Columns)+j.
	pairs []columnPair
}

// columnPair is one ordered column pair's cached filter outcome.
type columnPair struct {
	verdict extract.PairVerdict
	slot    int32              // the candidate's slot once admitted, else -1
	bin     *table.BinaryTable // the candidate, when verdict is PairCandidate
}

// candKey is a candidate's stable identity.
type candKey struct {
	table, left, right int32
}

// slotState is one interned candidate.
type slotState struct {
	key candKey
	bin *table.BinaryTable
	// cand is the normalized view, dropped after two runs out of the
	// candidate set.
	cand   *compat.Candidate
	used   int  // the last run that admitted the candidate
	active bool // admitted by the last run
	// edgesGen is the last run that changed one of the candidate's
	// compatibility edges.
	edgesGen int
}

// componentResult is what synthesis derives from one compatibility
// component: the greedy partitions in component-relative vertex ids and,
// per partition, its conflict-resolution outcome and cache key. valid is
// the last run whose component had exactly these edges, which is also the
// last run that used the entry.
type componentResult struct {
	parts    [][]int
	partKeys []string
	results  []*partResult
	valid    int
}

// partResult is one partition's conflict-resolution outcome: whether every
// candidate was removed, how many were, and the indices of the kept ones.
// used is the last run whose synthesis produced the partition.
type partResult struct {
	skip    bool
	removed int
	keptIdx []int
	used    int
}

// NewIncrementalState returns an empty state: the first RunIncremental
// through it is a full build that seeds every cache.
func NewIncrementalState() *IncrementalState {
	return &IncrementalState{}
}

// CacheStats reports the last run's component cache performance: cache hits
// (components replayed), misses (components recomputed), and the number of
// entries currently retained.
func (s *IncrementalState) CacheStats() (hits, misses, entries int) {
	return s.hits, s.misses, len(s.comps)
}

// reset empties every cache for a sequence under cfg.
func (s *IncrementalState) reset(cfg Config) {
	*s = IncrementalState{
		cfg:   cfg,
		idx:   stats.BuildIndex(nil),
		coh:   stats.NewCoherenceCounts(),
		block: compat.NewBlocker(cfg.Compat),
		comps: make(map[string]*componentResult),
		parts: make(map[string]*partResult),
	}
}

// RunIncremental executes the pipeline over tables, reusing inc's caches.
// The result is byte-identical to Run(ctx, tables); only the work is
// different. Configurations the caches cannot faithfully key (non-greedy
// resolution, an external synonym feed) fall back to Run.
func (e *Engine) RunIncremental(ctx context.Context, tables []*table.Table, inc *IncrementalState) (*Result, error) {
	if inc == nil || e.cfg.Resolution != ResolveGreedy || e.cfg.Synonyms != nil {
		return e.Run(ctx, tables)
	}
	cfg := e.cfg
	cfg.Workers = 0
	if inc.idx == nil || inc.cfg != cfg || len(inc.tables) > len(tables) {
		inc.reset(cfg)
	}
	inc.gen++
	res := &Result{}
	start := time.Now()

	_, err := runStage(ctx, e, res, Stage[[]*table.Table, struct{}]{
		Name:  "index",
		Items: func(ts []*table.Table) int { return len(ts) - len(inc.tables) },
		Run: func(ctx context.Context, ts []*table.Table) (struct{}, error) {
			inc.appendTables(ts[len(inc.tables):])
			return struct{}{}, nil
		},
	}, tables)
	if err != nil {
		return nil, err
	}
	res.Timings.Index = lastStage(res).Duration

	bins, err := runStage(ctx, e, res, e.cachedExtractStage(inc), tables)
	if err != nil {
		return nil, err
	}
	res.ExtractStats = bins.stats
	res.Candidates = len(bins.bins)
	res.Timings.Extract = lastStage(res).Duration

	gr, err := runStage(ctx, e, res, e.cachedGraphStage(inc), bins)
	if err != nil {
		return nil, err
	}
	res.Edges = gr.edges
	res.Timings.Graph = lastStage(res).Duration

	maps, err := runStage(ctx, e, res, e.cachedSynthesisStage(bins.bins, inc, res), gr)
	if err != nil {
		return nil, err
	}
	res.Mappings = maps.mappings
	res.TablesRemoved = maps.tablesRemoved
	res.Timings.Resolve = lastStage(res).Duration
	res.Timings.Partition = 0 // folded into the cached synthesis stage

	res.Timings.Total = time.Since(start)
	return res, nil
}

// appendTables indexes and counts newly appended tables and opens their
// extraction caches.
func (s *IncrementalState) appendTables(ts []*table.Table) {
	s.idx.Append(ts)
	col0 := s.coh.NumColumns()
	s.coh.Append(s.idx, ts)
	for _, t := range ts {
		s.tables = append(s.tables, tableCache{col0: col0})
		col0 += len(t.Columns)
	}
}

// cachedExtractStage re-scores every column's coherence from the cached
// counts, checks only column pairs never checked before, and tallies the
// candidates and stats exactly as extractStage would.
func (e *Engine) cachedExtractStage(inc *IncrementalState) Stage[[]*table.Table, extractOut] {
	return Stage[[]*table.Table, extractOut]{
		Name:  "extract",
		Items: func(ts []*table.Table) int { return len(ts) },
		Count: func(o extractOut) int { return len(o.bins) },
		Run: func(ctx context.Context, ts []*table.Table) (extractOut, error) {
			ext := extract.New(inc.idx, e.cfg.Extract)
			keep := make([]bool, inc.coh.NumColumns())
			// Per table, in parallel: coherence verdicts, then any pair
			// verdict still missing. Workers touch only their own table.
			if err := e.pool.ForEach(ctx, len(ts), func(ti int) {
				t, tc := ts[ti], &inc.tables[ti]
				n := len(t.Columns)
				k := keep[tc.col0 : tc.col0+n]
				for ci := range k {
					k[ci] = ext.Coherent(inc.coh.Coherence(tc.col0 + ci))
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if i == j || !k[i] || !k[j] {
							continue
						}
						if tc.pairs == nil {
							tc.pairs = make([]columnPair, n*n)
							for p := range tc.pairs {
								tc.pairs[p].slot = -1
							}
						}
						if pv := &tc.pairs[i*n+j]; pv.verdict == extract.PairUnchecked {
							pv.verdict, pv.bin = ext.CheckPair(t, i, j)
						}
					}
				}
			}); err != nil {
				return extractOut{}, err
			}

			var out extractOut
			active := make([]int32, 0, len(inc.active)+16)
			for ti, t := range ts {
				tc := &inc.tables[ti]
				n := len(t.Columns)
				st := extract.ScanTable(t, keep[tc.col0:tc.col0+n],
					func(i, j int) (extract.PairVerdict, *table.BinaryTable) {
						pv := &tc.pairs[i*n+j]
						return pv.verdict, pv.bin
					},
					func(i, j int, b *table.BinaryTable) {
						pv := &tc.pairs[i*n+j]
						if pv.slot < 0 {
							pv.slot = int32(len(inc.slots))
							inc.slots = append(inc.slots, slotState{
								key: candKey{int32(ti), int32(i), int32(j)},
								bin: b,
							})
						}
						b.ID = len(out.bins)
						out.bins = append(out.bins, b)
						active = append(active, pv.slot)
					})
				out.stats.Add(st)
			}
			out.stats.Tables = len(ts)
			out.stats.Candidates = len(out.bins)
			out.slots = active
			return out, nil
		},
	}
}

// componentsOut is the incremental graph stage's typed output: the
// compatibility graph already decomposed into its components.
type componentsOut struct {
	vertices, edges int
	comps           []graph.Component
}

// cachedGraphStage moves the blocking state from the last run's candidate
// set to this run's, scores only pairs not seen blocked before, and
// builds the graph over the current dense IDs and decomposes it.
func (e *Engine) cachedGraphStage(inc *IncrementalState) Stage[extractOut, componentsOut] {
	return Stage[extractOut, componentsOut]{
		Name:  "graph",
		Items: func(in extractOut) int { return len(in.bins) },
		Count: func(o componentsOut) int { return o.edges },
		Run: func(ctx context.Context, in extractOut) (componentsOut, error) {
			now := in.slots
			for _, s := range now {
				inc.slots[s].used = inc.gen
			}
			var added, removed, fresh []int32
			for _, s := range inc.active {
				if inc.slots[s].used != inc.gen {
					removed = append(removed, s)
				}
			}
			for _, s := range now {
				if ss := &inc.slots[s]; !ss.active {
					added = append(added, s)
					if ss.cand == nil {
						fresh = append(fresh, s)
					}
				}
			}
			if err := e.pool.ForEach(ctx, len(fresh), func(i int) {
				ss := &inc.slots[fresh[i]]
				ss.cand = compat.PrecomputeOne(0, ss.bin)
			}); err != nil {
				return componentsOut{}, err
			}
			for d, s := range now {
				inc.slots[s].cand.ID = d
			}

			for _, s := range removed {
				inc.block.Remove(s)
				inc.slots[s].active = false
			}
			for _, s := range added {
				inc.block.Add(s, inc.slots[s].cand)
				inc.slots[s].active = true
			}
			for _, s := range inc.block.TakeChanged() {
				inc.slots[s].edgesGen = inc.gen
			}
			inc.active = now
			for s := range inc.slots {
				if ss := &inc.slots[s]; !ss.active && ss.used < inc.gen-1 {
					ss.cand = nil
				}
			}
			if err := inc.block.Score(ctx, e.pool); err != nil {
				return componentsOut{}, err
			}

			dense := make([]int32, len(inc.slots))
			for d, s := range now {
				dense[s] = int32(d)
			}
			g := graph.New(len(now))
			inc.block.Edges(func(a, b int32, w compat.Weights) {
				g.AddEdge(int(dense[a]), int(dense[b]), w.Pos, w.Neg)
			})
			if e.cfg.DisableNegativeSignal {
				g.StripNegative()
			}
			return componentsOut{
				vertices: len(now),
				edges:    g.NumEdges(),
				comps:    g.Decompose(),
			}, nil
		},
	}
}

// cachedSynthesisStage fuses partition + resolve with the component and
// partition caches: key each component by its members, replay hits whose
// edges are unchanged, run greedy on misses, resolve only partitions not
// seen before, then assemble IDs/filters/sort exactly as resolveStage does.
func (e *Engine) cachedSynthesisStage(bins []*table.BinaryTable, inc *IncrementalState, res *Result) Stage[componentsOut, resolveOut] {
	return Stage[componentsOut, resolveOut]{
		Name:  "synthesize",
		Items: func(in componentsOut) int { return in.vertices },
		Count: func(o resolveOut) int { return len(o.mappings) },
		Run: func(ctx context.Context, in componentsOut) (resolveOut, error) {
			keys := make([]candKey, len(inc.active))
			for d, s := range inc.active {
				keys[d] = inc.slots[s].key
			}
			comps := in.comps
			res.Components = len(comps)

			compKeys := make([]string, len(comps))
			for i, c := range comps {
				compKeys[i] = memberKey(c.Vertices, keys)
			}
			results := make([]*componentResult, len(comps))
			var missIdx []int
			inc.hits, inc.misses = 0, 0
			for i, k := range compKeys {
				cr := inc.comps[k]
				if cr != nil && !inc.edgesUnchanged(comps[i].Vertices, cr.valid) {
					cr = nil
				}
				if cr == nil {
					missIdx = append(missIdx, i)
					inc.misses++
					continue
				}
				cr.valid = inc.gen
				results[i] = cr
				inc.hits++
			}

			// Greedy on every missed component, then conflict resolution
			// on every partition the caches have not seen.
			for _, i := range missIdx {
				results[i] = &componentResult{valid: inc.gen}
			}
			if err := e.pool.ForEach(ctx, len(missIdx), func(mi int) {
				i := missIdx[mi]
				parts, _ := synthesis.GreedyComponent(ctx, comps[i], e.cfg.Tau)
				cr := results[i]
				cr.parts = make([][]int, len(parts))
				cr.partKeys = make([]string, len(parts))
				cr.results = make([]*partResult, len(parts))
				for pi, pg := range parts {
					local := make([]int, len(pg))
					for j, g := range pg {
						local[j] = sort.SearchInts(comps[i].Vertices, g)
					}
					cr.parts[pi] = local
					cr.partKeys[pi] = memberKey(pg, keys)
					cr.results[pi] = inc.parts[cr.partKeys[pi]] // read-only here
				}
			}); err != nil {
				return resolveOut{}, err
			}
			type partRef struct{ comp, part int }
			var todo []partRef
			for _, i := range missIdx {
				for pi, pr := range results[i].results {
					if pr == nil {
						todo = append(todo, partRef{i, pi})
					}
				}
			}
			if err := e.pool.ForEach(ctx, len(todo), func(ti int) {
				ref := todo[ti]
				verts := comps[ref.comp].Vertices
				local := results[ref.comp].parts[ref.part]
				group := make([]*table.BinaryTable, len(local))
				for j, v := range local {
					group[j] = bins[verts[v]]
				}
				results[ref.comp].results[ref.part] = resolvePartition(group, e.cfg.Conflict)
			}); err != nil {
				return resolveOut{}, err
			}
			for _, i := range missIdx {
				inc.comps[compKeys[i]] = results[i]
			}
			for _, cr := range results {
				for pi, pk := range cr.partKeys {
					cr.results[pi].used = inc.gen
					inc.parts[pk] = cr.results[pi]
				}
			}
			inc.evict()

			// Assemble: the global partition list sorted by smallest member,
			// then the sequential ID walk of resolveStage.
			type assembled struct {
				comp, part int
				first      int // dense id of the partition's first (smallest) member
			}
			var refs []assembled
			for ci, cr := range results {
				for pi, local := range cr.parts {
					refs = append(refs, assembled{comp: ci, part: pi, first: comps[ci].Vertices[local[0]]})
				}
			}
			sort.Slice(refs, func(i, j int) bool { return refs[i].first < refs[j].first })
			res.Partitions = len(refs)

			var out resolveOut
			nextID := 0
			for pi, ref := range refs {
				pr := results[ref.comp].results[ref.part]
				out.tablesRemoved += pr.removed
				if pr.skip {
					continue
				}
				verts := comps[ref.comp].Vertices
				local := results[ref.comp].parts[ref.part]
				kept := make([]*table.BinaryTable, len(pr.keptIdx))
				for j, ki := range pr.keptIdx {
					kept[j] = bins[verts[local[ki]]]
				}
				m := mapping.Build(pi, kept)
				m.ID = nextID
				nextID++
				if m.Size() < e.cfg.MinPairs {
					continue
				}
				if e.cfg.MinDomains > 0 && m.NumDomains() < e.cfg.MinDomains {
					continue
				}
				out.mappings = append(out.mappings, m)
			}
			sortByPopularity(out.mappings)
			return out, nil
		},
	}
}

// evict drops the component and partition results that neither this run
// nor the one before it used.
func (s *IncrementalState) evict() {
	for k, cr := range s.comps {
		if cr.valid < s.gen-1 {
			delete(s.comps, k)
		}
	}
	for k, pr := range s.parts {
		if pr.used < s.gen-1 {
			delete(s.parts, k)
		}
	}
}

// resolvePartition runs conflict resolution on one partition's candidates,
// recording the kept ones by index.
func resolvePartition(group []*table.BinaryTable, opt conflict.Options) *partResult {
	kept, removed := conflict.Resolve(group, opt)
	pr := &partResult{removed: len(removed), skip: len(kept) == 0}
	// kept is an order-preserving subsequence of group; record indices.
	gi := 0
	for _, kb := range kept {
		for group[gi] != kb {
			gi++
		}
		pr.keptIdx = append(pr.keptIdx, gi)
		gi++
	}
	return pr
}

// edgesUnchanged reports whether no member of a component (dense IDs) had
// a compatibility edge change after run valid. Every edge of a component
// joins two of its members, so its edge set and weights are then exactly
// those of run valid.
func (s *IncrementalState) edgesUnchanged(members []int, valid int) bool {
	for _, d := range members {
		if s.slots[s.active[d]].edgesGen > valid {
			return false
		}
	}
	return true
}

// memberKey spells out the stable identities of a component's or a
// partition's members (dense IDs, ascending). Candidate content is a
// function of identity, and identity order is dense order, so everything
// conflict resolution reads — and, with unchanged edges, everything greedy
// reads — is fixed by the key.
func memberKey(members []int, keys []candKey) string {
	b := make([]byte, 0, 12*len(members))
	for _, v := range members {
		k := keys[v]
		b = binary.LittleEndian.AppendUint32(b, uint32(k.table))
		b = binary.LittleEndian.AppendUint32(b, uint32(k.left))
		b = binary.LittleEndian.AppendUint32(b, uint32(k.right))
	}
	return string(b)
}
