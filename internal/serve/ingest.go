package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"time"

	"mapsynth/internal/ingest"
	"mapsynth/internal/mapping"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/snapshot"
)

// POST /v1/corpora/{name}/tables is the live-ingestion endpoint: an NDJSON
// stream of tables (one {"domain","title","columns":[{"name","values"}]}
// object per line) is validated row by row through the same tenant/QoS
// admission as batch queries, appended to the corpus's durable log under
// one fsync, and handed to the incremental synthesis engine. The response
// is NDJSON too: one {"index","lsn"} or {"index","error"} line per input,
// then a trailer with the log head, the applied LSN and the synthesis
// disposition. By default synthesis runs asynchronously (the trailer says
// "queued"); ?wait=1 blocks until the new version is live.

// ingestLine acknowledges one accepted table with its assigned LSN.
type ingestLine struct {
	Index int   `json:"index"`
	LSN   int64 `json:"lsn"`
}

// ingestTrailer closes every ingest response stream.
type ingestTrailer struct {
	Done     bool   `json:"done"`
	Corpus   string `json:"corpus"`
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	// Truncated reports the request body was abandoned before EOF
	// (malformed line or cancellation); accepted rows are still durable.
	Truncated  bool  `json:"truncated,omitempty"`
	HeadLSN    int64 `json:"head_lsn"`
	AppliedLSN int64 `json:"applied_lsn"`
	// Synthesis is "applied" (wait=1 and the new version is live),
	// "queued" (async run kicked), or "error".
	Synthesis      string `json:"synthesis"`
	SynthesisError string `json:"synthesis_error,omitempty"`
	// Version is the corpus version live at trailer time; with
	// synthesis "applied" it is the version carrying these tables.
	Version   int64  `json:"version"`
	RequestID string `json:"request_id,omitempty"`
}

func (s *Server) handleIngestTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, CodeMethodNotAllowed, "POST required")
		return
	}
	tn, ok := s.admitTenant(w, r)
	if !ok {
		return
	}
	c, ok := s.resolveCorpus(w, r, r.PathValue("name"))
	if !ok {
		return
	}
	// Ingest streams share the batch request budget: a flood of ingest
	// requests is rejected with the same 429 contract as batch floods.
	if !s.batch.tryAcquireRequest() {
		writeOverloaded(w, r, batchRetryAfter, "batch capacity saturated, retry later")
		return
	}
	defer s.batch.releaseRequest()
	ing, err := s.ingestorFor(c.name)
	if err != nil {
		writeError(w, r, CodeUnprocessable, "ingest unavailable: "+err.Error())
		return
	}

	// Decode and validate the stream before writing anything, holding one
	// Batch-band fair-queue slot per row: an ingest flood backpressures
	// against the same slot budget as batch rows and can never crowd out
	// interactive queries (one slot stays reserved for them).
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBatchBodyBytes))
	dec.DisallowUnknownFields()
	var rows []ingest.TableRow
	var accepted []int // input index of each accepted row
	var errLines []batchErrorLine
	truncated := false
	for i := 0; ; i++ {
		var row ingest.TableRow
		if err := dec.Decode(&row); err != nil {
			if !errors.Is(err, io.EOF) {
				errLines = append(errLines, errorLine(i, "", &computeError{CodeBadRequest, "bad table line: " + err.Error()}))
				truncated = true
			}
			break
		}
		if err := s.acquireRow(r.Context(), tn); err != nil {
			truncated = true
			break
		}
		verr := row.Validate()
		s.releaseRow(verr != nil)
		if verr != nil {
			errLines = append(errLines, errorLine(i, "", &computeError{CodeBadRequest, "invalid table: " + verr.Error()}))
			continue
		}
		rows = append(rows, row)
		accepted = append(accepted, i)
	}

	// One append, one fsync: the whole request's rows become durable (and
	// visible to synthesis) together.
	lsns, err := ing.Append(rows)
	if err != nil {
		writeError(w, r, CodeInternal, "ingest log append: "+err.Error())
		return
	}
	trailer := ingestTrailer{Done: true, Corpus: c.name, Accepted: len(rows),
		Rejected: len(errLines), Truncated: truncated, RequestID: requestID(r)}
	if r.URL.Query().Get("wait") == "1" {
		if serr := ing.Sync(r.Context()); serr != nil {
			trailer.Synthesis, trailer.SynthesisError = "error", serr.Error()
		} else {
			trailer.Synthesis = "applied"
		}
	} else {
		if len(rows) > 0 {
			ing.Kick()
		}
		trailer.Synthesis = "queued"
	}
	trailer.HeadLSN = ing.Head()
	trailer.AppliedLSN = ing.Applied()
	if st := c.state.Load(); st != nil {
		trailer.Version = st.Version
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for k, i := range accepted {
		_ = enc.Encode(ingestLine{Index: i, LSN: lsns[k]})
	}
	for _, el := range errLines {
		_ = enc.Encode(el)
	}
	_ = enc.Encode(trailer)
}

// ingestorFor returns the corpus's ingestor, creating it on first use: the
// append log opens (replaying any persisted rows) under IngestDir, the base
// tables come from Options.IngestBase, and published versions install
// through the registry's versioned activate path as v2-backed states.
func (s *Server) ingestorFor(name string) (*ingest.Ingestor, error) {
	return s.ingest.GetOrCreate(name, func() (*ingest.Ingestor, error) {
		opts := ingest.Options{
			Corpus: name,
			Config: s.ingestConfig(),
			Publish: func(maps []*mapping.Mapping, lsn int64) error {
				return s.publishIngest(name, maps)
			},
		}
		if dir := s.ingest.Dir(); dir != "" {
			opts.LogPath = filepath.Join(dir, name+".mlog")
		}
		if s.opts.IngestBase != nil {
			base, err := s.opts.IngestBase(context.Background(), name)
			if err != nil {
				return nil, err
			}
			opts.Base = base
		}
		// Without base tables the engine synthesizes over the ingested
		// tables alone, so a bare publish would replace a snapshot-served
		// corpus with just that output — wiping content the server cannot
		// regenerate. Freeze the live mapping set now and union it under
		// every publish: the pre-ingest corpus is a fixed base layer,
		// ingested synthesis stacks on top with fresh IDs.
		if len(opts.Base) == 0 {
			if frozen := s.frozenBaseMappings(name); len(frozen) > 0 {
				maxID := 0
				for _, m := range frozen {
					if m.ID > maxID {
						maxID = m.ID
					}
				}
				inner := opts.Publish
				opts.Publish = func(maps []*mapping.Mapping, lsn int64) error {
					out := make([]*mapping.Mapping, 0, len(frozen)+len(maps))
					out = append(out, frozen...)
					for i, m := range maps {
						// Shallow-copy before renumbering, leaving the
						// engine's result untouched.
						nm := *m
						nm.ID = maxID + 1 + i
						out = append(out, &nm)
					}
					return inner(out, lsn)
				}
			}
		}
		return ingest.NewIngestor(opts)
	})
}

// frozenBaseMappings captures the corpus's currently served mapping set as
// the fixed base layer for base-less ingestion. Nil when the corpus is
// empty or has no serializable state.
func (s *Server) frozenBaseMappings(name string) []*mapping.Mapping {
	c := s.reg.get(name)
	if c == nil {
		return nil
	}
	st := c.state.Load()
	if st == nil || st.NumMappings() == 0 {
		return nil
	}
	data, err := stateSnapshotBytes(st)
	if err != nil {
		return nil
	}
	maps, err := snapshot.Decode(data)
	if err != nil {
		return nil
	}
	return maps
}

func (s *Server) ingestConfig() pipeline.Config {
	if s.opts.IngestConfig != nil {
		return *s.opts.IngestConfig
	}
	cfg := pipeline.DefaultConfig()
	cfg.Workers = s.opts.Workers
	return cfg
}

// publishIngest installs a synthesized mapping set as the corpus's next
// version. The set is canonically encoded to v2 and decoded back so the
// installed state is v2-backed: byte-addressable for snapshot GETs, CRC-
// identified for delta shipping — and byte-identical to what an offline
// rebuild over the same tables would snapshot (the incremental engine's
// golden parity contract). swapIn is atomic, so queries never observe a
// partially applied version.
func (s *Server) publishIngest(name string, maps []*mapping.Mapping) error {
	t0 := time.Now()
	var buf bytes.Buffer
	if err := snapshot.WriteV2(&buf, maps); err != nil {
		return err
	}
	ld, err := snapshot.LoadBytes(buf.Bytes())
	if err != nil {
		return err
	}
	c := s.reg.shell(name)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	s.swapIn(name, s.buildLoadedState(ld, "", t0))
	return nil
}

// ingestStatusFor returns the corpus's staleness report, nil when the
// corpus has never been ingested into.
func (s *Server) ingestStatusFor(name string) *ingest.Status {
	ing := s.ingest.Get(name)
	if ing == nil {
		return nil
	}
	st := ing.Status()
	return &st
}
