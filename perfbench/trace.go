package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mapsynth/internal/apps"
	"mapsynth/internal/index"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pool"
)

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Int64
}

func (t *tracer) id() int64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTable prints, per span name, the span count and mean duration and
// self time, the per-layer breakdown of the traced run.
func (t *tracer) selfTable(w io.Writer) {
	self := selfTimes(t.spans)
	type agg struct {
		n          int
		total, own int64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.own += self[s.ID]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %8s %14s %14s\n", "span", "count", "mean_us", "mean_self_us")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-32s %8d %14.2f %14.2f\n", n, a.n, float64(a.total)/float64(a.n)/1e3, float64(a.own)/float64(a.n)/1e3)
	}
}

// sourceCounts counts the storage reads of an index.Source.
type sourceCounts struct {
	postings, bloom, exact, materialize atomic.Int64
}

// countingSource wraps the v2 snapshot handle handed to index.FromSource
// and counts every read the index makes of it.
type countingSource struct {
	index.Source
	c *sourceCounts
}

func (s countingSource) Mapping(i int) *mapping.Mapping {
	s.c.materialize.Add(1)
	return s.Source.Mapping(i)
}

func (s countingSource) MayContainLeft(i int, h index.Hash) bool {
	s.c.bloom.Add(1)
	return s.Source.MayContainLeft(i, h)
}

func (s countingSource) MayContainRight(i int, h index.Hash) bool {
	s.c.bloom.Add(1)
	return s.Source.MayContainRight(i, h)
}

func (s countingSource) Postings(nl string) []int32 {
	p := s.Source.Postings(nl)
	s.c.postings.Add(int64(len(p)))
	return p
}

func (s countingSource) InLeft(i int, nl string) bool {
	s.c.exact.Add(1)
	return s.Source.InLeft(i, nl)
}

func (s countingSource) InRight(i int, nl string) bool {
	s.c.exact.Add(1)
	return s.Source.InRight(i, nl)
}

// probeCounts totals the index calls of a replay.
type probeCounts struct {
	probes, hits, ns atomic.Int64
}

// timedIndex wraps the index for one replayed request: every call is a
// span, a child of the request's apps span.
type timedIndex struct {
	ix     *index.MappingIndex
	tr     *tracer
	c      *probeCounts
	req    string
	parent int64
}

func (t *timedIndex) probe(name string, f func() []index.Hit) []index.Hit {
	start := time.Now()
	hits := f()
	end := time.Now()
	t.tr.record(span{Parent: t.parent, Req: t.req, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	t.c.probes.Add(1)
	t.c.hits.Add(int64(len(hits)))
	t.c.ns.Add(int64(end.Sub(start)))
	return hits
}

func (t *timedIndex) LookupLeft(values []string, minCoverage float64) []index.Hit {
	return t.probe("index.lookup_left", func() []index.Hit { return t.ix.LookupLeft(values, minCoverage) })
}

func (t *timedIndex) MixedColumnHits(values []string, minEach int, minCoverage float64) []index.Hit {
	return t.probe("index.mixed_column_hits", func() []index.Hit { return t.ix.MixedColumnHits(values, minEach, minCoverage) })
}

// callCounter counts the index calls the apps layer asks for, before the
// batch path's per-request dedup cache answers some of them.
type callCounter struct {
	ix apps.Index
	n  *atomic.Int64
}

func (c callCounter) LookupLeft(values []string, minCoverage float64) []index.Hit {
	c.n.Add(1)
	return c.ix.LookupLeft(values, minCoverage)
}

func (c callCounter) MixedColumnHits(values []string, minEach int, minCoverage float64) []index.Hit {
	c.n.Add(1)
	return c.ix.MixedColumnHits(values, minEach, minCoverage)
}

// replayer re-runs requests through the benchmark's own apps.Session over
// a timing index over a counting source, recording spans.
type replayer struct {
	tr     *tracer
	ix     *index.MappingIndex
	src    *sourceCounts
	probes probeCounts
	pool   *pool.Pool
	// Per-kind apps span durations in microseconds.
	sessionUs map[kind][]float64
	queries   int
	// Batch dedup: index calls asked for and calls that reached the index.
	batchAsked atomic.Int64
	batchRan   int64
}

func newReplayer(tr *tracer, h index.Source) *replayer {
	counts := &sourceCounts{}
	return &replayer{
		tr:        tr,
		ix:        index.FromSource(countingSource{h, counts}),
		src:       counts,
		pool:      pool.New(0),
		sessionUs: map[kind][]float64{},
	}
}

// replay runs one request as the server would and returns its apps span
// duration in microseconds. parent is the span the apps span hangs under.
func (rp *replayer) replay(reqID string, parent int64, r request) (float64, error) {
	appID := rp.tr.id()
	ti := &timedIndex{ix: rp.ix, tr: rp.tr, c: &rp.probes, req: reqID, parent: appID}
	ctx := context.Background()
	before := rp.probes.probes.Load()
	start := time.Now()
	var err error
	if r.Kind == kBatchFill {
		// The batch endpoint's per-request shape: one dedup cache shared by
		// every row of the stream.
		sess := apps.NewSession(apps.NewCachedIndex(callCounter{ti, &rp.batchAsked}),
			apps.WithCache(false), apps.WithDefaults(serveDefaults), apps.WithPool(rp.pool))
		qs := make([]apps.AutoFillQuery, len(r.Batch))
		for i, row := range r.Batch {
			qs[i] = apps.AutoFillQuery{Column: row.Column, Examples: []apps.Example{{Left: row.Examples[0].Left, Right: row.Examples[0].Right}}, MinCoverage: row.MinCoverage}
		}
		_, err = sess.AutoFill(ctx, qs)
	} else {
		sess := apps.NewSession(ti, apps.WithDefaults(serveDefaults), apps.WithPool(rp.pool))
		_, err = answer(ctx, sess, rp.ix, r)
	}
	end := time.Now()
	if err != nil {
		return 0, err
	}
	s := span{ID: appID, Parent: parent, Req: reqID, Name: "apps." + r.Kind.String(), Start: start.UnixNano(), End: end.UnixNano()}
	rp.tr.record(s)
	us := float64(end.Sub(start)) / 1e3
	if r.Kind == kBatchFill {
		rp.batchRan += rp.probes.probes.Load() - before
	} else {
		rp.sessionUs[r.Kind] = append(rp.sessionUs[r.Kind], us)
		rp.queries++
	}
	return us, nil
}

// handlerSpans wraps the server's handler and records the time each
// request spends inside it, keyed by the generator's request ID.
type handlerSpans struct {
	h  http.Handler
	mu sync.Mutex
	at map[string][2]int64
}

func (hs *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now().UnixNano()
	hs.h.ServeHTTP(w, r)
	end := time.Now().UnixNano()
	hs.mu.Lock()
	hs.at[r.Header.Get("X-Request-ID")] = [2]int64{start, end}
	hs.mu.Unlock()
}

// handled returns the recorded handler intervals by request ID.
func (hs *handlerSpans) handled() map[string][2]int64 {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return hs.at
}
