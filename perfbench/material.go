package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/ingest"
	"mapsynth/internal/mapping"
	"mapsynth/internal/snapshot"
)

// kind is one request type the generator sends.
type kind uint8

const (
	kLookup kind = iota
	kAutoFill
	kAutoCorrect
	kAutoJoin
	kBatchFill
	kIngest
	numKinds
)

var kindNames = [numKinds]string{"lookup", "autofill", "autocorrect", "autojoin", "batch-autofill", "ingest"}

func (k kind) String() string { return kindNames[k] }

// Request bodies, shaped like the service's JSON API.
type example struct {
	Left  string `json:"left"`
	Right string `json:"right"`
}

type fillReq struct {
	ID          string    `json:"id,omitempty"`
	Column      []string  `json:"column"`
	Examples    []example `json:"examples"`
	MinCoverage float64   `json:"min_coverage"`
}

type correctReq struct {
	Column      []string `json:"column"`
	MinEach     int      `json:"min_each"`
	MinCoverage float64  `json:"min_coverage"`
}

type joinReq struct {
	KeysA       []string `json:"keys_a"`
	KeysB       []string `json:"keys_b"`
	MinCoverage float64  `json:"min_coverage"`
}

// request is one generated operation's input.
type request struct {
	Kind    kind
	Key     string
	Fill    *fillReq
	Correct *correctReq
	Join    *joinReq
	Batch   []fillReq
	Table   *ingest.TableRow
}

// http returns the request's HTTP method, path and body.
func (r request) http() (method, path string, body []byte, err error) {
	switch r.Kind {
	case kLookup:
		return "GET", "/v1/lookup?key=" + url.QueryEscape(r.Key), nil, nil
	case kAutoFill:
		body, err = json.Marshal(r.Fill)
		return "POST", "/v1/autofill", body, err
	case kAutoCorrect:
		body, err = json.Marshal(r.Correct)
		return "POST", "/v1/autocorrect", body, err
	case kAutoJoin:
		body, err = json.Marshal(r.Join)
		return "POST", "/v1/autojoin", body, err
	case kBatchFill:
		for _, row := range r.Batch {
			line, err := json.Marshal(row)
			if err != nil {
				return "", "", nil, err
			}
			body = append(append(body, line...), '\n')
		}
		return "POST", "/v1/batch/autofill", body, nil
	case kIngest:
		body, err = json.Marshal(r.Table)
		return "POST", "/v1/corpora/default/tables", append(body, '\n'), err
	}
	return "", "", nil, fmt.Errorf("unknown request kind %d", r.Kind)
}

// maxColumnValues caps generated column lengths, like cmd/loadgen.
const maxColumnValues = 16

// material is the query material derived from the served snapshot: the
// value columns of every mapping with at least four pairs, and every
// distinct left value as a lookup key.
type material struct {
	lefts, rights [][]string
	keys          []string
}

// loadMaterial reads a v2 snapshot and derives the query material.
func loadMaterial(path string) (*material, error) {
	h, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	return materialOf(h.Materialize()), nil
}

// materialOf copies every string out of maps, whose strings may view a
// mapped snapshot region that is unmapped later.
func materialOf(maps []*mapping.Mapping) *material {
	m := &material{}
	seen := make(map[string]bool)
	for _, mp := range maps {
		for _, p := range mp.Pairs {
			if !seen[p.L] {
				seen[p.L] = true
				m.keys = append(m.keys, strings.Clone(p.L))
			}
		}
		if len(mp.Pairs) < 4 {
			continue
		}
		n := min(len(mp.Pairs), maxColumnValues)
		var l, r []string
		for _, p := range mp.Pairs[:n] {
			l = append(l, strings.Clone(p.L))
			r = append(r, strings.Clone(p.R))
		}
		m.lefts = append(m.lefts, l)
		m.rights = append(m.rights, r)
	}
	return m
}

// hotKeys returns n keys picked by a seeded shuffle.
func (m *material) hotKeys(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(m.keys))
	out := make([]string, 0, n)
	for _, i := range perm[:min(n, len(perm))] {
		out = append(out, m.keys[i])
	}
	return out
}

// next builds one single-column request of kind k from a random mapping,
// shaped like cmd/loadgen's requests.
func (m *material) next(rng *rand.Rand, k kind, keys []string) request {
	if k == kLookup {
		return request{Kind: k, Key: keys[rng.Intn(len(keys))]}
	}
	i := rng.Intn(len(m.lefts))
	l, r := m.lefts[i], m.rights[i]
	switch k {
	case kAutoFill:
		return request{Kind: k, Fill: &fillReq{Column: l, Examples: []example{{l[0], r[0]}}, MinCoverage: 0.8}}
	case kAutoCorrect:
		split := max(len(l)/2, len(l)-len(l)/2)
		col := append(append([]string{}, l[:split]...), r[split:]...)
		return request{Kind: k, Correct: &correctReq{Column: col, MinEach: 2, MinCoverage: 0.8}}
	case kAutoJoin:
		return request{Kind: k, Join: &joinReq{KeysA: l, KeysB: r, MinCoverage: 0.8}}
	}
	panic("material.next: not a single-column kind")
}

// batchRows is the number of NDJSON rows per batch request.
const batchRows = 16

func (m *material) batch(rng *rand.Rand) request {
	rows := make([]fillReq, batchRows)
	for i := range rows {
		rows[i] = *m.next(rng, kAutoFill, nil).Fill
		rows[i].ID = fmt.Sprintf("r%d", i)
	}
	return request{Kind: kBatchFill, Batch: rows}
}

// corpusSeed generates the benchmark's corpora. It is fixed so that every
// run synthesizes the same corpus; --seed varies the request streams.
const corpusSeed = 42

// heldOutTables returns n tables for ingestion: a seeded sample of a web
// corpus generated with a different seed than the base, so they are new
// tables about the same relations.
func heldOutTables(seed int64, n int) []ingest.TableRow {
	c := corpusgen.GenerateWeb(corpusgen.Options{Seed: corpusSeed + 1, Scale: 1})
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(c.Tables))
	out := make([]ingest.TableRow, 0, n)
	for _, i := range perm[:min(n, len(perm))] {
		t := c.Tables[i]
		row := ingest.TableRow{Domain: t.Domain, Title: t.Title}
		for _, col := range t.Columns {
			row.Columns = append(row.Columns, ingest.ColumnRow{Name: col.Name, Values: col.Values})
		}
		out = append(out, row)
	}
	return out
}

// lane is one constant-rate request stream of a phase.
type lane struct {
	Name string
	Rate float64 // requests per second
	Mix  []kind  // kinds drawn uniformly; repeat a kind to weight it
	// Hot restricts lookups to this many keys picked with KeySeed; 0
	// spreads them over every key.
	Hot     int
	KeySeed int64
}

// phase is one open-loop run of the generator against one server. The
// first Lead seconds warm connections, caches and mapped pages and are
// not measured; Seconds are measured after them.
type phase struct {
	Name    string
	Lead    float64
	Seconds float64
	Lanes   []lane
}

// op is one scheduled request.
type op struct {
	Lane int
	Due  time.Duration
	Req  request
}

// schedule expands a phase into its requests in due order. Each lane sends
// at a constant rate from a seeded random offset; contents come from a
// per-lane seeded generator, so the same seed gives the same requests in
// every process that builds the schedule.
func schedule(m *material, seed int64, ph phase) []op {
	var ops []op
	tables := 0
	for li, ln := range ph.Lanes {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(li)*7919))
		keys := m.keys
		if ln.Hot > 0 {
			keys = m.hotKeys(ln.KeySeed, ln.Hot)
		}
		interval := time.Duration(float64(time.Second) / ln.Rate)
		n := int((ph.Lead + ph.Seconds) * ln.Rate)
		offset := time.Duration(rng.Int63n(int64(interval)))
		for i := 0; i < n; i++ {
			k := ln.Mix[rng.Intn(len(ln.Mix))]
			var req request
			switch k {
			case kBatchFill:
				req = m.batch(rng)
			case kIngest:
				req = request{Kind: kIngest}
				tables++
			default:
				req = m.next(rng, k, keys)
			}
			ops = append(ops, op{Lane: li, Due: offset + time.Duration(i)*interval, Req: req})
		}
	}
	if tables > 0 {
		rows := heldOutTables(seed, tables)
		j := 0
		for i := range ops {
			if ops[i].Req.Kind == kIngest {
				ops[i].Req.Table = &rows[j%len(rows)]
				j++
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Due < ops[j].Due })
	return ops
}
