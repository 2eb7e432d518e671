package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mapsynth/internal/apps"
)

// The /batch/* endpoints are the bulk counterparts of the single-column
// application endpoints. Requests and responses are both NDJSON streams:
// the client sends one JSON object per line (the same schema as the single
// endpoint, plus an optional "id" echoed back), and the server answers with
// one JSON line per input as each column completes — results appear in
// completion order, tagged with the zero-based input "index", so a slow
// column never blocks the lines behind it and the server holds no
// whole-batch buffer in either direction. A final trailer line
// {"done":true,...} closes every stream, which is how clients distinguish
// "all answers arrived" from a severed connection.
//
// Admission control: the batchLimiter rejects requests beyond the request
// bound with 429 + Retry-After, and pauses body decoding at the row bound
// so overload turns into TCP backpressure instead of dropped work.

// batchErrorLine reports one input line that could not be answered: a
// malformed JSON line (which also ends decoding — NDJSON cannot be resynced
// after a syntax error) or a validation failure. The error payload is the
// same structured object as top-level error envelopes, minus the request ID
// (the stream's trailer carries it once).
type batchErrorLine struct {
	Index int      `json:"index"`
	ID    string   `json:"id,omitempty"`
	Error apiError `json:"error"`
}

func errorLine(index int, id string, ce *computeError) batchErrorLine {
	return batchErrorLine{Index: index, ID: id, Error: apiError{Code: ce.code, Message: ce.msg}}
}

// batchTrailer is the final line of every batch response stream.
type batchTrailer struct {
	Done bool `json:"done"`
	// Results counts per-input lines emitted (answers plus error lines).
	Results int `json:"results"`
	// Errors counts the error lines among them.
	Errors int `json:"errors"`
	// Truncated reports that the request body was abandoned before EOF
	// (malformed line or client disconnect); absent on clean streams.
	Truncated bool `json:"truncated,omitempty"`
	// RequestID echoes the request's X-Request-ID, so a stored batch
	// result can be tied back to server logs.
	RequestID string `json:"request_id,omitempty"`
}

type batchFillRequest struct {
	ID string `json:"id"`
	autoFillRequest
}

type batchFillLine struct {
	Index int    `json:"index"`
	ID    string `json:"id,omitempty"`
	autoFillResponse
}

type batchCorrectRequest struct {
	ID string `json:"id"`
	autoCorrectRequest
}

type batchCorrectLine struct {
	Index int    `json:"index"`
	ID    string `json:"id,omitempty"`
	autoCorrectResponse
}

type batchJoinRequest struct {
	ID string `json:"id"`
	autoJoinRequest
}

type batchJoinLine struct {
	Index int    `json:"index"`
	ID    string `json:"id,omitempty"`
	autoJoinResponse
}

func (s *Server) handleBatchAutoFill(c *corpus, w http.ResponseWriter, r *http.Request) bool {
	return streamBatch(s, c, w, r, func(ctx context.Context, st *State, sess *apps.Session, i int, req batchFillRequest) (any, bool) {
		resp, ce := autoFillCompute(ctx, st, sess, req.autoFillRequest)
		if ce != nil {
			return errorLine(i, req.ID, ce), false
		}
		return batchFillLine{Index: i, ID: req.ID, autoFillResponse: resp}, true
	})
}

func (s *Server) handleBatchAutoCorrect(c *corpus, w http.ResponseWriter, r *http.Request) bool {
	return streamBatch(s, c, w, r, func(ctx context.Context, st *State, sess *apps.Session, i int, req batchCorrectRequest) (any, bool) {
		resp, ce := autoCorrectCompute(ctx, st, sess, req.autoCorrectRequest)
		if ce != nil {
			return errorLine(i, req.ID, ce), false
		}
		return batchCorrectLine{Index: i, ID: req.ID, autoCorrectResponse: resp}, true
	})
}

func (s *Server) handleBatchAutoJoin(c *corpus, w http.ResponseWriter, r *http.Request) bool {
	return streamBatch(s, c, w, r, func(ctx context.Context, st *State, sess *apps.Session, i int, req batchJoinRequest) (any, bool) {
		resp, ce := autoJoinCompute(ctx, st, sess, req.autoJoinRequest)
		if ce != nil {
			return errorLine(i, req.ID, ce), false
		}
		return batchJoinLine{Index: i, ID: req.ID, autoJoinResponse: resp}, true
	})
}

// streamBatch is the shared driver: admission control, incremental decode,
// bounded fan-out, and the single-writer response stream. handle answers
// one input line against the pinned state and the per-request caching
// index; its bool reports success (false lines are counted as errors in
// the limiter and trailer).
func streamBatch[Req any](s *Server, c *corpus, w http.ResponseWriter, r *http.Request, handle func(ctx context.Context, st *State, sess *apps.Session, i int, req Req) (any, bool)) bool {
	if r.Method != http.MethodPost {
		return writeError(w, r, CodeMethodNotAllowed, "POST required")
	}
	if !s.batch.tryAcquireRequest() {
		return writeOverloaded(w, r, batchRetryAfter, "batch capacity saturated, retry later")
	}
	defer s.batch.releaseRequest()
	// The tenant admitTenant resolved for this request: its weight places
	// this stream's rows in the fair queue's Batch band.
	tn := s.tenantFrom(r)

	// Pin the corpus's state once: every line of one batch answers against
	// the same snapshot even if a reload, activate or rollback lands
	// mid-stream. The per-request Session wraps a caching index, giving
	// this request the within-batch lookup amortization of a multi-query
	// apps call: identical columns across lines share one shard scan.
	st := c.state.Load()
	sess := apps.NewSession(apps.NewCachedIndex(st.Index),
		apps.WithCache(false), // the shared wrapper above already dedups
		apps.WithDefaults(serveDefaults),
		apps.WithPool(s.pool))
	// The stream context also covers writer health: when the response side
	// dies (client stopped reading past BatchWriteTimeout), cancelling it
	// makes the decoder stop admitting rows and in-flight workers drop
	// their lines, so their limiter slots free promptly instead of staying
	// pinned by one stalled connection.
	ctx, cancelStream := context.WithCancel(r.Context())
	defer cancelStream()

	// HTTP/1 servers close the request body at the first response flush
	// unless full duplex is enabled; this handler reads and writes
	// concurrently by design. Errors (e.g. recorders in tests, HTTP/2
	// where duplex is native) are ignorable.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	type line struct {
		v      any
		failed bool
	}
	results := make(chan line)
	// decodeFail carries at most one terminal decoder problem; emitted
	// after all in-flight rows have answered.
	decodeFail := make(chan batchErrorLine, 1)
	go func() {
		defer close(results)
		var wg sync.WaitGroup
		defer wg.Wait()
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBatchBodyBytes))
		dec.DisallowUnknownFields()
		for i := 0; ; i++ {
			var req Req
			if err := dec.Decode(&req); err != nil {
				if !errors.Is(err, io.EOF) {
					decodeFail <- errorLine(i, "", &computeError{CodeBadRequest, "bad request line: " + err.Error()})
				}
				return
			}
			// The row bound is enforced here, before the next line is even
			// read: saturation stalls the decoder, not the answer stream.
			if err := s.acquireRow(ctx, tn); err != nil {
				decodeFail <- errorLine(i, "", cancelledError(err))
				return
			}
			wg.Add(1)
			go func(i int, req Req) {
				defer wg.Done()
				v, ok := answerRow(ctx, st, sess, i, req, handle)
				// Hand the line to the writer before releasing the row
				// slot: a client that reads its response slowly must hold
				// its slots, or the row bound would not actually bound the
				// completed-but-unwritten rows a slow reader can pile up.
				select {
				case results <- line{v, !ok}:
				case <-ctx.Done():
				}
				s.releaseRow(!ok)
			}(i, req)
		}
	}()

	enc := json.NewEncoder(w)
	writeAlive := true
	writeLine := func(v any) {
		if !writeAlive {
			return
		}
		// A client that stops reading stalls this write; the deadline
		// turns that stall into a dead stream so the cancel above frees
		// the rows (and their global limiter slots) this request holds.
		rc.SetWriteDeadline(time.Now().Add(s.opts.BatchWriteTimeout))
		if err := enc.Encode(v); err != nil {
			writeAlive = false
			cancelStream()
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	trailer := batchTrailer{Done: true, RequestID: requestID(r)}
	for ln := range results {
		writeLine(ln.v)
		trailer.Results++
		if ln.failed {
			trailer.Errors++
		}
	}
	select {
	case fail := <-decodeFail:
		writeLine(fail)
		trailer.Results++
		trailer.Errors++
		trailer.Truncated = true
	default:
	}
	writeLine(trailer)
	return trailer.Errors == 0 && !trailer.Truncated && writeAlive
}

// answerRow runs handle for one input line, converting a panic into an
// error line instead of letting it kill the process: row work runs on
// goroutines the HTTP server's per-connection panic recovery does not
// cover, and one poisoned input must cost one row, not the whole service.
func answerRow[Req any](ctx context.Context, st *State, sess *apps.Session, i int, req Req, handle func(context.Context, *State, *apps.Session, int, Req) (any, bool)) (v any, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			v, ok = errorLine(i, "", &computeError{CodeInternal, fmt.Sprintf("internal error answering row: %v", r)}), false
		}
	}()
	return handle(ctx, st, sess, i, req)
}

// ---- shared single-column compute paths ----
//
// Each compute function validates one request, answers it through an
// apps.Session, and is shared verbatim by the single-request handler and
// the batch stream, so the two surfaces cannot drift. sess is the query
// surface to use — the pinned state's long-lived session for single
// requests, a per-request caching session for batches (st is still needed
// for mapping provenance). A non-nil computeError is an error response
// (status from its code on the single endpoint, an error line in a batch).

// maxTopK bounds the top_k request parameter: candidate lists are for
// disambiguation UIs, not for exporting the index.
const maxTopK = 100

// batchRetryAfter is the delay advertised on 429 responses, feeding both
// the Retry-After header and the envelope's retry_after_ms.
const batchRetryAfter = time.Second

// validateParams checks the request parameters shared by the three
// application endpoints. Zero values mean "use the server default" and are
// always legal; explicit out-of-range values are rejected rather than
// silently clamped.
func validateParams(minCoverage float64, topK int) *computeError {
	if minCoverage < 0 || minCoverage > 1 {
		return badRequestf("min_coverage must be within [0, 1], got %g", minCoverage)
	}
	if topK < 0 || topK > maxTopK {
		return badRequestf("top_k must be within [0, %d], got %d", maxTopK, topK)
	}
	return nil
}

func autoFillCompute(ctx context.Context, st *State, sess *apps.Session, req autoFillRequest) (autoFillResponse, *computeError) {
	if len(req.Column) == 0 {
		return autoFillResponse{}, badRequestf("column must not be empty")
	}
	if ce := validateParams(req.MinCoverage, req.TopK); ce != nil {
		return autoFillResponse{}, ce
	}
	examples := make([]apps.Example, len(req.Examples))
	for i, e := range req.Examples {
		examples[i] = apps.Example{Left: e.Left, Right: e.Right}
	}
	results, err := sess.AutoFill(ctx, []apps.AutoFillQuery{{
		Column:      req.Column,
		Examples:    examples,
		MinCoverage: req.MinCoverage,
		TopK:        req.TopK,
	}})
	if err != nil {
		return autoFillResponse{}, cancelledError(err)
	}
	res := results[0]
	resp := autoFillResponse{
		Found:             res.MappingIndex >= 0,
		autoFillCandidate: autoFillView(st, res, len(req.Column)),
	}
	for _, c := range res.Candidates {
		resp.Candidates = append(resp.Candidates, autoFillView(st, c, len(req.Column)))
	}
	return resp, nil
}

func autoFillView(st *State, res apps.AutoFillResult, columnLen int) autoFillCandidate {
	c := autoFillCandidate{MappingIndex: res.MappingIndex}
	if res.MappingIndex >= 0 {
		c.MappingID = st.Index.Mapping(res.MappingIndex).ID
		for row := 0; row < columnLen; row++ {
			if v, ok := res.Filled[row]; ok {
				c.Filled = append(c.Filled, filledCell{Row: row, Value: v})
			}
		}
	}
	return c
}

func autoCorrectCompute(ctx context.Context, st *State, sess *apps.Session, req autoCorrectRequest) (autoCorrectResponse, *computeError) {
	if len(req.Column) == 0 {
		return autoCorrectResponse{}, badRequestf("column must not be empty")
	}
	if ce := validateParams(req.MinCoverage, req.TopK); ce != nil {
		return autoCorrectResponse{}, ce
	}
	if req.MinEach < 0 {
		return autoCorrectResponse{}, badRequestf("min_each must be >= 0, got %d", req.MinEach)
	}
	results, err := sess.AutoCorrect(ctx, []apps.AutoCorrectQuery{{
		Column:      req.Column,
		MinEach:     req.MinEach,
		MinCoverage: req.MinCoverage,
		TopK:        req.TopK,
	}})
	if err != nil {
		return autoCorrectResponse{}, cancelledError(err)
	}
	res := results[0]
	resp := autoCorrectResponse{
		Found:                res.MappingIndex >= 0,
		autoCorrectCandidate: autoCorrectView(st, res),
	}
	for _, c := range res.Candidates {
		resp.Candidates = append(resp.Candidates, autoCorrectView(st, c))
	}
	return resp, nil
}

func autoCorrectView(st *State, res apps.AutoCorrectResult) autoCorrectCandidate {
	c := autoCorrectCandidate{MappingIndex: res.MappingIndex, Corrections: res.Corrections}
	if res.MappingIndex >= 0 {
		c.MappingID = st.Index.Mapping(res.MappingIndex).ID
	}
	return c
}

func autoJoinCompute(ctx context.Context, st *State, sess *apps.Session, req autoJoinRequest) (autoJoinResponse, *computeError) {
	if len(req.KeysA) == 0 || len(req.KeysB) == 0 {
		return autoJoinResponse{}, badRequestf("keys_a and keys_b must not be empty")
	}
	if ce := validateParams(req.MinCoverage, req.TopK); ce != nil {
		return autoJoinResponse{}, ce
	}
	results, err := sess.AutoJoin(ctx, []apps.AutoJoinQuery{{
		KeysA:       req.KeysA,
		KeysB:       req.KeysB,
		MinCoverage: req.MinCoverage,
		TopK:        req.TopK,
	}})
	if err != nil {
		return autoJoinResponse{}, cancelledError(err)
	}
	res := results[0]
	resp := autoJoinResponse{
		Found:             res.MappingIndex >= 0,
		autoJoinCandidate: autoJoinView(st, res),
	}
	for _, c := range res.Candidates {
		resp.Candidates = append(resp.Candidates, autoJoinView(st, c))
	}
	return resp, nil
}

func autoJoinView(st *State, res apps.AutoJoinResult) autoJoinCandidate {
	c := autoJoinCandidate{MappingIndex: res.MappingIndex, Bridged: res.Bridged}
	if res.MappingIndex >= 0 {
		c.MappingID = st.Index.Mapping(res.MappingIndex).ID
		for _, row := range res.Rows {
			c.Rows = append(c.Rows, joinedRow{LeftRow: row.LeftRow, RightRow: row.RightRow})
		}
	}
	return c
}
