package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mapsynth/internal/metrics"
	"mapsynth/internal/qos"
)

// scrape fetches /v1/metrics from a handler and lints the exposition.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	if err := metrics.Lint(rec.Body.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, rec.Body.String())
	}
	return rec.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	s := NewFromMappings(testMappings(), Options{CacheSize: 8})
	h := s.Handler()

	// Drive traffic: two lookups (one hit, one again for a cache hit), one
	// 404, one bad request.
	for _, path := range []string{
		"/v1/lookup?key=tcp", "/v1/lookup?key=tcp", "/v1/lookup",
		"/v1/nope",
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	}

	body := scrape(t, h)
	for _, want := range []string{
		`mapsynth_requests_total{corpus="default",endpoint="lookup"} 3`,
		`mapsynth_request_errors_total{corpus="default",endpoint="lookup"} 1`,
		`mapsynth_errors_total{code="bad_request"} 1`,
		`mapsynth_errors_total{code="not_found"} 1`,
		`mapsynth_corpora 1`,
		`mapsynth_corpus_version{corpus="default"} 1`,
		`mapsynth_cache_hits_total{corpus="default"} 1`,
		`mapsynth_cache_misses_total{corpus="default"} 1`,
		`mapsynth_batch_requests_total 0`,
		`mapsynth_pool_workers`,
		`go_goroutines`,
		`mapsynth_request_duration_seconds_bucket{corpus="default",endpoint="lookup",le="+Inf"} 3`,
		`mapsynth_request_duration_seconds_count{corpus="default",endpoint="lookup"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Endpoints with zero traffic must not mint 43-series histograms.
	if strings.Contains(body, `mapsynth_request_duration_seconds_count{corpus="default",endpoint="autojoin"}`) {
		t.Error("idle endpoint minted a histogram")
	}
	// But their counters do appear (at zero), so dashboards see the full set.
	if !strings.Contains(body, `mapsynth_requests_total{corpus="default",endpoint="autojoin"} 0`) {
		t.Error("idle endpoint counter missing")
	}
}

func TestMetricsPerCorpusSeries(t *testing.T) {
	s := NewFromMappings(testMappings(), Options{})
	if _, err := s.AddCorpus("tickers", testMappings()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/corpora/tickers/lookup?key=tcp", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("scoped lookup = %d", rec.Code)
	}
	body := scrape(t, h)
	for _, want := range []string{
		`mapsynth_corpora 2`,
		`mapsynth_requests_total{corpus="tickers",endpoint="lookup"} 1`,
		`mapsynth_requests_total{corpus="default",endpoint="lookup"} 0`,
		`mapsynth_corpus_version{corpus="tickers"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestMetricsEndpointMethodGuard(t *testing.T) {
	s := NewFromMappings(testMappings(), Options{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/metrics = %d, want 405", rec.Code)
	}
}

func TestBatchBackpressureCounter(t *testing.T) {
	ctx := context.Background()
	s := NewFromMappings(testMappings(), Options{MaxBatchRows: 1})
	tn, err := s.tenants.resolve("")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.acquireRow(ctx, tn); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() { done <- s.acquireRow(ctx, tn) }()
	// The second acquire must take the slow path and count itself before
	// blocking; release the slot so it completes.
	for s.batch.backpressure.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	s.releaseRow(false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	s.releaseRow(false)
	if got := s.batch.backpressure.Load(); got != 1 {
		t.Errorf("backpressure = %d, want 1", got)
	}
	if snap := s.batchSnapshot(); snap.Backpressure != 1 {
		t.Errorf("snapshot backpressure = %d, want 1", snap.Backpressure)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s := NewFromMappings(testMappings(), Options{Logger: logger})
	h := s.Handler()

	type logLine struct {
		Level      string  `json:"level"`
		Msg        string  `json:"msg"`
		RequestID  string  `json:"request_id"`
		Method     string  `json:"method"`
		Path       string  `json:"path"`
		Route      string  `json:"route"`
		Corpus     string  `json:"corpus"`
		Status     int     `json:"status"`
		Code       string  `json:"code"`
		Bytes      int64   `json:"bytes"`
		DurationMs float64 `json:"duration_ms"`
	}
	logOne := func(method, path string) logLine {
		t.Helper()
		buf.Reset()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, nil)
		req.Header.Set("X-Request-ID", "test-req-1")
		h.ServeHTTP(rec, req)
		var ll logLine
		if err := json.Unmarshal(buf.Bytes(), &ll); err != nil {
			t.Fatalf("access log is not one JSON line: %v\n%s", err, buf.String())
		}
		return ll
	}

	ll := logOne("GET", "/v1/lookup?key=tcp")
	if ll.Msg != "request" || ll.Level != "INFO" {
		t.Errorf("ok request logged as %s/%s", ll.Level, ll.Msg)
	}
	if ll.RequestID != "test-req-1" {
		t.Errorf("request_id = %q", ll.RequestID)
	}
	if ll.Route != "/v1/lookup" || ll.Corpus != "default" || ll.Status != 200 {
		t.Errorf("route/corpus/status = %q/%q/%d", ll.Route, ll.Corpus, ll.Status)
	}
	if ll.Bytes == 0 || ll.DurationMs < 0 {
		t.Errorf("bytes=%d duration_ms=%v", ll.Bytes, ll.DurationMs)
	}

	ll = logOne("GET", "/v1/lookup")
	if ll.Level != "WARN" || ll.Status != 400 || ll.Code != "bad_request" {
		t.Errorf("client error logged as %s status=%d code=%q", ll.Level, ll.Status, ll.Code)
	}

	ll = logOne("GET", "/v1/does-not-exist")
	if ll.Route != "unmatched" || ll.Status != 404 || ll.Code != "not_found" {
		t.Errorf("404 logged as route=%q status=%d code=%q", ll.Route, ll.Status, ll.Code)
	}

	ll = logOne("GET", "/v1/corpora/ghost/lookup?key=x")
	if ll.Corpus != "ghost" || ll.Code != "corpus_not_found" {
		t.Errorf("missing corpus logged as corpus=%q code=%q", ll.Corpus, ll.Code)
	}
}

func TestAccessLogLevelGate(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s := NewFromMappings(testMappings(), Options{Logger: logger})
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/lookup?key=tcp", nil))
	if buf.Len() != 0 {
		t.Errorf("2xx logged despite warn-level gate: %s", buf.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/lookup", nil))
	if buf.Len() == 0 {
		t.Error("4xx not logged at warn level")
	}
}

// TestStatusWriterPreservesStreaming pins the contract the batch endpoints
// depend on: the status-capturing wrapper must still expose Flush and
// Unwrap, or full-duplex streaming silently degrades.
func TestStatusWriterPreservesStreaming(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	var w http.ResponseWriter = sw
	if _, ok := w.(http.Flusher); !ok {
		t.Error("statusWriter lost http.Flusher")
	}
	rc := http.NewResponseController(sw)
	if err := rc.Flush(); err != nil {
		t.Errorf("ResponseController.Flush through wrapper: %v", err)
	}
	if !rec.Flushed {
		t.Error("flush did not reach the inner writer")
	}
}

// TestClientClosedWhileQueued is the regression test for client
// disconnects: a lookup whose client gives up while it waits for a
// fair-queue slot answers the client_closed envelope (status 499), is
// counted under mapsynth_errors_total{code="client_closed"} rather than
// "internal", and is logged below ERROR.
func TestClientClosedWhileQueued(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s := NewFromMappings(testMappings(), Options{MaxBatchRows: 1, Logger: logger})
	h := s.Handler()
	if !s.fair.TryAcquire(qos.Batch) {
		t.Fatal("could not take the only slot")
	}

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/lookup?key=tcp", nil).WithContext(ctx)
	req.Header.Set("X-Request-ID", "gone-id")
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	for s.fair.Waiting(qos.Interactive) == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	s.fair.Release(qos.Batch)

	if rec.Code != statusClientClosed {
		t.Fatalf("status = %d, want %d", rec.Code, statusClientClosed)
	}
	const want = `{"error":{"code":"client_closed","message":"request cancelled while queued","request_id":"gone-id"}}`
	if got := strings.TrimSpace(rec.Body.String()); got != want {
		t.Errorf("envelope = %s\nwant       %s", got, want)
	}
	body := scrape(t, h)
	if !strings.Contains(body, `mapsynth_errors_total{code="client_closed"} 1`) {
		t.Error(`mapsynth_errors_total{code="client_closed"} not counted`)
	}
	if strings.Contains(body, `mapsynth_errors_total{code="internal"}`) {
		t.Error("a client disconnect was counted as an internal error")
	}
	var line struct {
		Level string `json:"level"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[0], &line); err != nil {
		t.Fatalf("access log: %v: %s", err, buf.String())
	}
	if line.Code != "client_closed" || line.Level != "WARN" {
		t.Errorf("logged code=%q at %s, want client_closed at WARN", line.Code, line.Level)
	}
}
