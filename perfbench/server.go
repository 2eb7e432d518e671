package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"syscall"
	"time"

	"mapsynth/internal/compat"
	"mapsynth/internal/corpusgen"
	"mapsynth/internal/extract"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/stats"
	"mapsynth/internal/table"
)

// cacheSize is the per-corpus lookup cache the servers run with, the
// cmd/serve default.
const cacheSize = 4096

// buildSpec is the build process's input: the corpus to synthesize and
// where to write its v2 snapshot.
type buildSpec struct {
	Seed  int64
	Scale float64
	Out   string
	// Trace records per-stage wall time, CPU and allocation through the
	// engine's instrumentation hooks.
	Trace bool
}

// stageRecord is one pipeline stage as the traced build saw it.
type stageRecord struct {
	Name    string
	Start   int64 // Unix nanoseconds
	End     int64
	CPU     float64 // process CPU seconds during the stage
	AllocMB float64
}

// buildInfo is the build process's report once its server answers.
type buildInfo struct {
	Addr       string
	RunS       float64 // pipeline.Run
	WriteS     float64 // snapshot.WriteFileV2
	ActivateMs float64 // serve.New over the written snapshot
	AllocMB    float64 // bytes allocated by run, write and activation
	Mappings   int
	Pairs      int
	Candidates int
	Edges      int
	SHA256     string
	ProbeKey   string
	Start, End int64 // Unix nanoseconds around run, write and activation
	Stages     []stageRecord
}

// buildExtras are the traced build's follow-up measurements, taken after
// the timed build so they do not disturb it.
type buildExtras struct {
	OpenMs       float64 // snapshot.Open of the written file
	BlockedPairs int     // pairs compat.BlockedPairs hands to scoring
}

// runBuild is the build process: generate the corpus, report ready, and
// on "go" synthesize, write the snapshot and serve it until stdin closes.
func runBuild(spec buildSpec) error {
	in := bufio.NewReader(os.Stdin)
	corpus := corpusgen.GenerateWeb(corpusgen.Options{Seed: spec.Seed, Scale: spec.Scale})
	if err := emit(map[string]bool{"ready": true}); err != nil {
		return err
	}
	if ln, err := awaitLine(in); err != nil || ln != "go" {
		return fmt.Errorf("build: want go, got %q (%v)", ln, err)
	}
	eng := pipeline.New(pipeline.DefaultConfig())
	var stages []stageRecord
	if spec.Trace {
		eng.SetInstrumentation(stageHooks(&stages))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	res, err := eng.Run(context.Background(), corpus.Tables)
	if err != nil {
		return err
	}
	t1 := time.Now()
	if err := snapshot.WriteFileV2(spec.Out, res.Mappings); err != nil {
		return err
	}
	t2 := time.Now()
	srv, err := serve.New(serve.Options{SnapshotPath: spec.Out, CacheSize: cacheSize})
	if err != nil {
		return err
	}
	t3 := time.Now()
	runtime.ReadMemStats(&ms1)
	hs, addr, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer shutdown(hs, srv)
	data, err := os.ReadFile(spec.Out)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	info := buildInfo{
		Addr:       addr,
		RunS:       t1.Sub(t0).Seconds(),
		WriteS:     t2.Sub(t1).Seconds(),
		ActivateMs: float64(t3.Sub(t2)) / 1e6,
		AllocMB:    float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		Mappings:   len(res.Mappings),
		Candidates: res.Candidates,
		Edges:      res.Edges,
		SHA256:     hex.EncodeToString(sum[:]),
		Start:      t0.UnixNano(),
		End:        t3.UnixNano(),
		Stages:     stages,
	}
	for _, m := range res.Mappings {
		info.Pairs += len(m.Pairs)
	}
	if len(res.Mappings) > 0 && len(res.Mappings[0].Pairs) > 0 {
		info.ProbeKey = res.Mappings[0].Pairs[0].L
	}
	if err := emit(info); err != nil {
		return err
	}
	for {
		ln, err := awaitLine(in)
		if err != nil {
			return nil // stdin closed: stop serving
		}
		if ln == "extras" {
			ex, err := measureExtras(corpus.Tables, spec.Out)
			if err != nil {
				return err
			}
			if err := emit(ex); err != nil {
				return err
			}
		}
	}
}

// measureExtras times opening the written snapshot and counts the pairs
// blocking hands to compatibility scoring, re-running the extraction and
// candidate preparation through the packages' public functions.
func measureExtras(tables []*table.Table, path string) (buildExtras, error) {
	var ex buildExtras
	t0 := time.Now()
	h, err := snapshot.Open(path)
	if err != nil {
		return ex, err
	}
	ex.OpenMs = float64(time.Since(t0)) / 1e6
	_ = h.Close() // read-only mapping
	cfg := pipeline.DefaultConfig()
	eng := pipeline.New(cfg)
	bins, _, err := extract.New(stats.BuildIndex(tables), cfg.Extract).ExtractAllParallel(context.Background(), tables, eng.Pool())
	if err != nil {
		return ex, err
	}
	cands, err := compat.PrecomputeParallel(context.Background(), bins, eng.Pool())
	if err != nil {
		return ex, err
	}
	pos, neg := compat.BlockedPairs(cands, cfg.Compat.ThetaOverlap)
	ex.BlockedPairs = len(pos) + len(neg)
	return ex, nil
}

// stageHooks records each stage's wall interval, process CPU and bytes
// allocated. The hooks run on the engine's driving goroutine.
func stageHooks(out *[]stageRecord) pipeline.Instrumentation {
	var cur stageRecord
	var ms runtime.MemStats
	var alloc0 uint64
	return pipeline.Instrumentation{
		OnStageStart: func(name string, _ int) {
			runtime.ReadMemStats(&ms)
			alloc0 = ms.TotalAlloc
			cur = stageRecord{Name: name, CPU: selfCPU(), Start: time.Now().UnixNano()}
		},
		OnStageEnd: func(pipeline.StageStats) {
			cur.End = time.Now().UnixNano()
			cur.CPU = selfCPU() - cur.CPU
			runtime.ReadMemStats(&ms)
			cur.AllocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
			*out = append(*out, cur)
		},
	}
}

// selfCPU returns this process's user plus system CPU seconds, at the
// microsecond resolution of getrusage: some stages last only tens of
// milliseconds, a few ticks of /proc/<pid>/stat.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// serveSpec is the server process's input.
type serveSpec struct {
	Snapshot string
	// IngestDir, when set, enables live ingestion with an fsync'd log
	// there, over the web corpus of IngestSeed at IngestScale as base.
	IngestDir   string
	IngestSeed  int64
	IngestScale float64
}

// runServe is the server process: serve the snapshot until stdin closes.
func runServe(spec serveSpec) error {
	opts := serve.Options{SnapshotPath: spec.Snapshot, CacheSize: cacheSize}
	if spec.IngestDir != "" {
		base := corpusgen.GenerateWeb(corpusgen.Options{Seed: spec.IngestSeed, Scale: spec.IngestScale}).Tables
		opts.IngestDir = spec.IngestDir
		opts.IngestBase = func(context.Context, string) ([]*table.Table, error) { return base, nil }
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}
	hs, addr, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer shutdown(hs, srv)
	if err := emit(map[string]string{"addr": addr}); err != nil {
		return err
	}
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := awaitLine(in); err != nil {
			return nil
		}
	}
}

// listen serves h on a free loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on shutdown
	return hs, ln.Addr().String(), nil
}

func shutdown(hs *http.Server, srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx) // best effort: the process is exiting
	srv.Close()
}
