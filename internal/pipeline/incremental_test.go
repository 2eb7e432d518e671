package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"mapsynth/internal/compat"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
)

// snapBytes pins a mapping set's exact serialized form, so "identical"
// below means byte-identical, not merely structurally equal.
func snapBytes(t *testing.T, maps []*mapping.Mapping) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapshot.WriteV2(&buf, maps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func incrTestCorpus(t *testing.T) []*table.Table {
	t.Helper()
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: 11, SampleFraction: 0.25})
	if len(corpus.Tables) < 20 {
		t.Fatalf("test corpus too small: %d tables", len(corpus.Tables))
	}
	return corpus.Tables
}

// TestIncrementalColdParity: a cold-cache RunIncremental is a full build and
// must match Run byte-for-byte.
func TestIncrementalColdParity(t *testing.T) {
	tables := incrTestCorpus(t)
	cfg := DefaultConfig()
	full, err := New(cfg).Run(context.Background(), tables)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(cfg).RunIncremental(context.Background(), tables, NewIncrementalState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes(t, full.Mappings), snapBytes(t, inc.Mappings)) {
		t.Fatal("cold incremental run differs from Run")
	}
	if full.TablesRemoved != inc.TablesRemoved || full.Partitions != inc.Partitions ||
		full.Components != inc.Components || full.Candidates != inc.Candidates {
		t.Fatalf("result stats differ: full %+v vs incremental %+v", full, inc)
	}
}

// requireParity fails unless an incremental result matches a from-scratch
// one: byte-identical snapshots and identical run statistics.
func requireParity(t *testing.T, step string, got, want *Result) {
	t.Helper()
	if !bytes.Equal(snapBytes(t, got.Mappings), snapBytes(t, want.Mappings)) {
		t.Fatalf("%s: incremental result differs from a full rebuild", step)
	}
	if got.ExtractStats != want.ExtractStats {
		t.Fatalf("%s: extract stats differ:\nincremental %+v\nfull        %+v", step, got.ExtractStats, want.ExtractStats)
	}
	type counts struct{ Candidates, Edges, Components, Partitions, TablesRemoved int }
	g := counts{got.Candidates, got.Edges, got.Components, got.Partitions, got.TablesRemoved}
	w := counts{want.Candidates, want.Edges, want.Components, want.Partitions, want.TablesRemoved}
	if g != w {
		t.Fatalf("%s: result stats differ: incremental %+v, full %+v", step, g, w)
	}
}

// activeKeys lists the stable identities of the last run's candidates, in
// dense-ID order.
func activeKeys(s *IncrementalState) []candKey {
	out := make([]candKey, len(s.active))
	for d, slot := range s.active {
		out[d] = s.slots[slot].key
	}
	return out
}

// firstShift returns the first dense ID at which the candidates drawn from
// the first nBase tables differ between two runs, or -1 when they agree: a
// coherence flip in a base table shifts the dense IDs of every later
// candidate. Base tables come first, so their candidates lead in dense
// order.
func firstShift(prev, cur []candKey, nBase int) int {
	fromBase := func(ks []candKey) []candKey {
		n := 0
		for n < len(ks) && int(ks[n].table) < nBase {
			n++
		}
		return ks[:n]
	}
	p, c := fromBase(prev), fromBase(cur)
	for d := 0; d < min(len(p), len(c)); d++ {
		if p[d] != c[d] {
			return d
		}
	}
	if len(p) != len(c) {
		return min(len(p), len(c))
	}
	return -1
}

// TestIncrementalIngestParity is the golden tentpole contract: ingesting
// batches of 1, 7 and 15 held-out tables through the caches yields the
// from-scratch result at every step — byte-identical mappings and
// identical run statistics — even when a coherence flip in a base table
// shifts the dense IDs of every later candidate.
func TestIncrementalIngestParity(t *testing.T) {
	t.Run("sampled", func(t *testing.T) { testIngestParity(t, incrTestCorpus(t)) })
	t.Run("scale=1", func(t *testing.T) {
		if testing.Short() {
			t.Skip("scale-1 corpus in -short mode")
		}
		testIngestParity(t, corpusgen.GenerateWeb(corpusgen.Options{Seed: 42, Scale: 1}).Tables)
	})
}

func testIngestParity(t *testing.T, base []*table.Table) {
	batches := []int{1, 7, 15}
	extra := heldOut(43, len(base), 1+7+15)

	cfg := DefaultConfig()
	eng := New(cfg)
	state := NewIncrementalState()
	cur := append([]*table.Table(nil), base...)
	if _, err := eng.RunIncremental(context.Background(), cur, state); err != nil {
		t.Fatal(err)
	}
	prev := activeKeys(state)
	sawHit, sawShift := false, false
	for step, n := range batches {
		cur = append(cur, extra[:n]...)
		extra = extra[n:]
		got, err := eng.RunIncremental(context.Background(), cur, state)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(cfg).Run(context.Background(), cur)
		if err != nil {
			t.Fatal(err)
		}
		requireParity(t, fmt.Sprintf("step %d (+%d tables)", step, n), got, want)
		keys := activeKeys(state)
		if d := firstShift(prev, keys, len(base)); d >= 0 {
			t.Logf("step %d: candidate IDs shift from %d of %d", step, d, len(keys))
			sawShift = true
		}
		prev = keys
		hits, misses, entries := state.CacheStats()
		t.Logf("step %d: component cache %d hits, %d misses", step, hits, misses)
		if hits > 0 {
			sawHit = true
		}
		if entries < hits {
			t.Fatalf("step %d: cache bookkeeping off: hits=%d misses=%d entries=%d", step, hits, misses, entries)
		}
	}
	if !sawShift {
		t.Fatal("no ingest flipped a base column's coherence: the test no longer covers shifted candidate IDs")
	}
	if !sawHit {
		t.Fatal("component cache never hit — incrementality is not engaging")
	}
}

// hubTable is one table of the posting-cap corpus: its left column holds
// "hub" (shared by every table), two values of its own and a value shared
// with one partner table; its right column holds values of its own and one
// shared with the partner. Partners therefore share two left values — and
// are blocked for w- — only while the "hub" posting list is at most
// compat.MaxPostingLen long.
func hubTable(id int) *table.Table {
	own := func(kind string) string { return fmt.Sprintf("%s %x", kind, uint32(id)*2654435761) }
	return &table.Table{ID: id, Domain: fmt.Sprintf("d%d.example", id%7), Columns: []table.Column{
		{Name: "name", Values: []string{"hub", own("alpha"), own("beta"), fmt.Sprintf("partner %d", id/2)}},
		{Name: "code", Values: []string{own("gamma"), own("delta"), own("epsilon"), fmt.Sprintf("joint %d", id/2)}},
	}}
}

// triangleTables returns three tables whose left-to-right candidates form
// one component that survives the hub list crossing the cap: X–Y and Y–Z
// share five value pairs each (w+ edges), while X–Z share only "hub" and
// one more left value, mapped to different right values — a w- edge below
// τ that exists only while the hub list counts. Greedy keeps X and Z apart
// while the edge exists and merges all three once it is gone, so a
// component cache replaying results by membership alone would go stale.
func triangleTables(id int) []*table.Table {
	seq := func(kind string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s item %d", kind, i)
		}
		return out
	}
	cat := func(parts ...[]string) []string {
		var out []string
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	p, q, m, n := seq("north", 5), seq("south", 5), seq("east", 5), seq("west", 5)
	two := func(tid int, left, right []string) *table.Table {
		return &table.Table{ID: tid, Domain: fmt.Sprintf("t%d.example", tid), Columns: []table.Column{
			{Name: "name", Values: left}, {Name: "code", Values: right},
		}}
	}
	return []*table.Table{
		two(id, cat([]string{"hub"}, p, []string{"apex"}), cat([]string{"xylophone quartet"}, q, []string{"maple syrup"})),
		two(id+1, cat(p, m), cat(q, n)),
		two(id+2, cat([]string{"hub"}, m, []string{"apex"}), cat([]string{"zeppelin hangar"}, n, []string{"granite quarry"})),
	}
}

// TestIncrementalPostingCapCrossing pushes one blocking key's posting list
// above compat.MaxPostingLen by ingesting tables, then back below it by
// ingesting a table that makes two earlier left columns incoherent, and
// requires from-scratch parity at every step — including for a component
// whose members stay the same while one of its edges comes and goes.
func TestIncrementalPostingCapCrossing(t *testing.T) {
	base := triangleTables(0)
	const triangleCands = 6 // both directions of three tables; two hold "hub"
	for len(base) < compat.MaxPostingLen {
		base = append(base, hubTable(len(base)))
	}
	over := []*table.Table{hubTable(len(base)), hubTable(len(base) + 1)}
	// Single-value columns holding two hub tables' own left values apart:
	// those values now occur elsewhere but never with "hub", so both left
	// columns score incoherent and their candidates leave the hub list.
	var flip table.Table
	flip.ID = len(base) + len(over)
	for _, src := range base[3:5] {
		for _, v := range src.Columns[0].Values[1:3] {
			flip.Columns = append(flip.Columns, table.Column{Name: "v", Values: []string{v}})
		}
	}

	cfg := DefaultConfig()
	eng := New(cfg)
	state := NewIncrementalState()
	cur := append([]*table.Table(nil), base...)
	var edges []int
	for step, add := range [][]*table.Table{nil, over, {&flip}} {
		cur = append(cur, add...)
		got, err := eng.RunIncremental(context.Background(), cur, state)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(cfg).Run(context.Background(), cur)
		if err != nil {
			t.Fatal(err)
		}
		requireParity(t, fmt.Sprintf("step %d", step), got, want)
		// Every table yields both directions as candidates; the hub
		// posting list holds one direction of each hub table, plus X and Z.
		if hub := (got.Candidates-triangleCands)/2 + 2; (hub > compat.MaxPostingLen) != (step == 1) {
			t.Fatalf("step %d: hub posting list has %d candidates", step, hub)
		}
		t.Logf("step %d: %d candidates, %d edges, %d partitions", step, got.Candidates, got.Edges, got.Partitions)
		edges = append(edges, got.Edges)
	}
	if !(edges[0] > edges[1] && edges[2] > edges[1]) {
		t.Fatalf("edges per step %v: crossing the posting cap did not change blocking", edges)
	}
}

// TestIncrementalWorkerIndependence: the cached path must stay deterministic
// for any worker count, like Run.
func TestIncrementalWorkerIndependence(t *testing.T) {
	tables := incrTestCorpus(t)
	var want []byte
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		state := NewIncrementalState()
		eng := New(cfg)
		// Two runs over the same tables: the second is a 100% cache hit and
		// must still reproduce the same bytes.
		if _, err := eng.RunIncremental(context.Background(), tables, state); err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunIncremental(context.Background(), tables, state)
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses, _ := state.CacheStats(); misses != 0 || hits == 0 {
			t.Fatalf("re-run over identical tables: hits=%d misses=%d, want all hits", hits, misses)
		}
		b := snapBytes(t, res.Mappings)
		if want == nil {
			want = b
		} else if !bytes.Equal(want, b) {
			t.Fatalf("workers=%d produced different bytes", workers)
		}
	}
}

// TestIncrementalFallback: configurations the cache cannot key fall back to
// the plain pipeline rather than guessing.
func TestIncrementalFallback(t *testing.T) {
	tables := incrTestCorpus(t)
	cfg := DefaultConfig()
	cfg.Resolution = ResolveMajority
	want, err := New(cfg).Run(context.Background(), tables)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(cfg).RunIncremental(context.Background(), tables, NewIncrementalState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes(t, want.Mappings), snapBytes(t, got.Mappings)) {
		t.Fatal("fallback path differs from Run")
	}
}

// TestIncrementalEviction: a component or partition result survives one
// run that leaves it unused and is evicted at the end of the second.
func TestIncrementalEviction(t *testing.T) {
	s := &IncrementalState{
		gen: 5,
		comps: map[string]*componentResult{
			"now": {valid: 5}, "last": {valid: 4}, "stale": {valid: 3},
		},
		parts: map[string]*partResult{
			"now": {used: 5}, "last": {used: 4}, "stale": {used: 3},
		},
	}
	s.evict()
	for _, k := range []string{"now", "last"} {
		if s.comps[k] == nil || s.parts[k] == nil {
			t.Errorf("%q evicted, want kept", k)
		}
	}
	if s.comps["stale"] != nil || s.parts["stale"] != nil {
		t.Error(`"stale" kept, want evicted`)
	}
}
