package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/ingest"
	"mapsynth/internal/pipeline"
	"mapsynth/internal/serve"
	"mapsynth/internal/snapshot"
	"mapsynth/internal/table"
	"mapsynth/internal/textnorm"
)

// workloads maps each workload name to its flow.
var workloads = map[string]func(*run) error{
	"lookup-hot": func(r *run) error { return queryFlow(r, lookupHot(r.seed)) },
	"apps-cold":  func(r *run) error { return queryFlow(r, appsCold()) },
	"build":      buildFlow,
	"ingest":     ingestFlow,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// queryCfg is a query workload: its constant-rate lanes, and for the
// traced run the single-request rate ladder and its latency limit.
type queryCfg struct {
	lanes       []lane
	ladder      []float64
	rungSeconds float64
	sloMs       float64
}

// lookupHot sends lookups over 256 keys, which the 4,096-entry lookup
// cache holds after their first miss.
func lookupHot(seed int64) queryCfg {
	return queryCfg{
		lanes:       []lane{{Name: "lookup", Rate: 2000, Mix: []kind{kLookup}, Hot: 256, KeySeed: seed}},
		ladder:      []float64{1000, 2000, 3000, 4000, 6000, 8000},
		rungSeconds: 1.5,
		sloMs:       10,
	}
}

// appsCold mixes the three applications with lookups spread over every
// left key, plus 16-row batch auto-fill streams at a low rate. Lookups are
// a third of the single requests: at half, the median would sit in the gap
// between fast lookups and slow app requests, where it jumps between them.
func appsCold() queryCfg {
	single := []kind{kLookup, kLookup, kAutoFill, kAutoFill, kAutoCorrect, kAutoJoin}
	return queryCfg{
		lanes: []lane{
			{Name: "single", Rate: 150, Mix: single},
			{Name: "batch", Rate: 10, Mix: []kind{kBatchFill}},
		},
		ladder:      []float64{100, 200, 400, 800, 1200, 1600, 2400, 3200},
		rungSeconds: 2.5,
		sloMs:       50,
	}
}

// leadSeconds is the unmeasured lead-in of a measured phase, which warms
// the generator's connections, the lookup cache and the mapped snapshot.
const leadSeconds = 1

// sampleEvery is the stride of responses kept for the correctness check.
const sampleEvery = 29

func queryFlow(r *run, cfg queryCfg) error {
	srv, err := r.setupServing(1, false)
	if err != nil {
		return err
	}
	if r.traced {
		return traceQueries(r, srv, cfg)
	}
	cpu0, err := procCPU(srv.proc.pid())
	if err != nil {
		return err
	}
	res, ops, err := r.drive(srv.addr, srv.snap, r.seed, phase{Name: "fixed", Lead: leadSeconds, Seconds: r.seconds, Lanes: cfg.lanes}, sampleEvery)
	if err != nil {
		return err
	}
	cpu1, err := procCPU(srv.proc.pid())
	if err != nil {
		return err
	}
	rss, err := procPeakRSS(srv.proc.pid())
	if err != nil {
		return err
	}
	r.account(res)
	r.set("op_p50_ms", r.queryLatency(res, ops).P50)
	r.genLateness(res)
	r.set("server_cpu_us_per_op", (cpu1-cpu0)/float64(completed(res))*1e6)
	r.set("server_rss_mb", rss)
	r.batchLatency(res, ops)
	return r.checkSample(srv.snap, res, ops)
}

// completed counts a phase's successful operations, at least 1 so that it
// can divide.
func completed(res *genResult) int {
	n := 0
	for _, ok := range res.OK {
		if ok {
			n++
		}
	}
	return max(n, 1)
}

// batchLatency records the batch stream latencies of a phase, if it had
// any.
func (r *run) batchLatency(res *genResult, ops []op) {
	ms, failed := latencies(res, ops, isBatch)
	if len(ms)+failed == 0 {
		return
	}
	d := summarize(ms, failed, 90)
	r.set("batch_p50_ms", d.P50)
	r.set("batch_p90_ms", d.Tail)
}

// traceQueries is the traced run of a query workload: an untraced phase on
// the server process with its counter deltas, the rate ladder, then the
// same phase against an in-process server whose handler is timed, and a
// replay of that phase's requests through the apps and index layers.
func traceQueries(r *run, srv *server, cfg queryCfg) error {
	fixed := phase{Name: "fixed", Lead: leadSeconds, Seconds: math.Max(3, r.seconds/2), Lanes: cfg.lanes}
	s0, p0, err := readCounters(srv.addr)
	if err != nil {
		return err
	}
	pl := startPoller(srv.addr)
	resU, opsU, err := r.drive(srv.addr, srv.snap, r.seed, fixed, 0)
	samples := pl.finish()
	if err != nil {
		return err
	}
	s1, p1, err := readCounters(srv.addr)
	if err != nil {
		return err
	}
	r.account(resU)
	r.genLateness(resU)
	r.batchLatency(resU, opsU)
	msU, failedU := latencies(resU, opsU, isSingle)
	dU := summarize(msU, failedU, 99)
	r.set("query_p50_ms", dU.P50)
	r.set("query_p99_ms", dU.Tail)
	d := counterDelta(s0, s1, p0, p1)
	done := float64(completed(resU))
	r.set("serve.alloc_bytes_per_op", d.allocBytes/done)
	r.set("serve.gc_per_kop", d.gcCycles/done*1000)
	r.set("serve.cache_hit_ratio", ratio(float64(d.hits), float64(d.hits+d.misses)))
	r.set("serve.batch_backpressure", float64(d.backpressure))
	r.set("qos.throttled", float64(d.throttled))
	r.set("qos.waiting_max", maxWaiting(samples))
	if d.throttled != 0 {
		r.problem("%d requests throttled at the fixed rate", d.throttled)
	}

	// The traced phase, right after: the same schedule against an
	// in-process server whose handler is wrapped. The server process idles
	// meanwhile and serves the ladder afterwards.
	s, err := serve.New(serve.Options{SnapshotPath: srv.snap, CacheSize: cacheSize})
	if err != nil {
		return err
	}
	hsp := &handlerSpans{h: s.Handler(), at: map[string][2]int64{}}
	hs, addr, err := listen(hsp)
	if err != nil {
		return err
	}
	pl = startPoller(addr)
	resT, opsT, err := r.drive(addr, srv.snap, r.seed, fixed, 0)
	pl.finish()
	shutdown(hs, s)
	if err != nil {
		return err
	}
	r.account(resT)
	msT, failedT := latencies(resT, opsT, isSingle)
	dT := summarize(msT, failedT, 99)
	r.set("trace.overhead_pct", (dT.P50-dU.P50)/dU.P50*100)

	var rungs []rung
	for i, rate := range cfg.ladder {
		ln := cfg.lanes[0]
		ln.Rate = rate
		res, ops, err := r.drive(srv.addr, srv.snap, r.seed+int64(i)+1, phase{Name: fmt.Sprintf("rung%d", i), Lead: 0.5, Seconds: cfg.rungSeconds, Lanes: []lane{ln}}, 0)
		if err != nil {
			return err
		}
		ms, failed := latencies(res, ops, isSingle)
		m := res.measuredOnly()
		rg := rung{Rate: rate, Lat: summarize(ms, failed, 99), Growing: backlogGrowing(m.Due, m.End, m.OK)}
		rungs = append(rungs, rg)
		r.notes = append(r.notes, fmt.Sprintf("ladder %.0f/s: p%v %.3f ms, %d failed, backlog growing %v, pass %v",
			rate, rg.Lat.TailP, rg.Lat.Tail, rg.Lat.Failed, rg.Growing, rungPasses(rg, cfg.sloMs)))
		if !rungPasses(rg, cfg.sloMs) {
			break
		}
	}
	r.set("query_max_qps", maxPassingRate(rungs, cfg.sloMs))

	return replayQueries(r, srv.snap, resT, opsT, hsp.handled())
}

// replayQueries records the traced phase's client and handler spans, then
// replays each request through the apps and index layers. A lookup the
// server answered from its cache (its key seen before by this server,
// lead-in included) has no apps child.
func replayQueries(r *run, snap string, res *genResult, ops []op, handled map[string][2]int64) error {
	h, err := snapshot.Open(snap)
	if err != nil {
		return err
	}
	defer h.Close()
	rp := newReplayer(r.tr, h)
	seen := map[string]bool{}
	for i, o := range ops {
		if !res.measured(i) && o.Req.Kind == kLookup {
			seen[textnorm.Normalize(o.Req.Key)] = true
		}
	}
	var outside, handler, serveSelf []float64
	replay := func(single bool) error {
		for i, o := range ops {
			at, ok := handled[fmt.Sprintf("fixed-%d", i)]
			if !res.measured(i) || !res.OK[i] || !ok || isSingle(o.Req) != single {
				continue
			}
			id := fmt.Sprintf("fixed-%d", i)
			cs, ce := res.T0+res.Sent[i], res.T0+res.End[i]
			clientID := r.tr.id()
			r.tr.record(span{ID: clientID, Req: id, Name: "client", Start: cs, End: ce})
			r.tr.record(span{Parent: clientID, Req: id, Name: "serve.handler", Start: at[0], End: at[1]})
			replayID := r.tr.id()
			rs := time.Now().UnixNano()
			appsUs, err := rp.replay(id, replayID, o.Req)
			if err != nil {
				return err
			}
			r.tr.record(span{ID: replayID, Req: id, Name: "replay", Start: rs, End: time.Now().UnixNano()})
			if !single {
				continue
			}
			hUs := float64(at[1]-at[0]) / 1e3
			outside = append(outside, float64((ce-cs)-(at[1]-at[0]))/1e3)
			handler = append(handler, hUs)
			if o.Req.Kind == kLookup {
				nk := textnorm.Normalize(o.Req.Key)
				if seen[nk] {
					appsUs = 0
				}
				seen[nk] = true
			}
			serveSelf = append(serveSelf, hUs-appsUs)
		}
		return nil
	}
	if err := replay(true); err != nil {
		return err
	}
	probes := float64(rp.probes.probes.Load())
	queries := float64(rp.queries)
	r.set("http.outside_handler_us", median(outside))
	r.set("serve.handler_us", median(handler))
	r.set("serve.self_us", median(serveSelf))
	for _, k := range []kind{kLookup, kAutoFill, kAutoCorrect, kAutoJoin} {
		if us := rp.sessionUs[k]; len(us) > 0 {
			r.set("apps.session_us."+k.String(), median(us))
		}
	}
	self := selfTimes(r.tr.spans)
	var appsSelf []float64
	for _, s := range r.tr.spans {
		if strings.HasPrefix(s.Name, "apps.") && !strings.HasPrefix(s.Name, "apps.batch") {
			appsSelf = append(appsSelf, float64(self[s.ID])/1e3)
		}
	}
	r.set("apps.self_us", median(appsSelf))
	r.set("apps.probes_per_query", ratio(probes, queries))
	r.set("index.probe_us", ratio(float64(rp.probes.ns.Load())/1e3, probes))
	r.set("index.postings_per_probe", ratio(float64(rp.src.postings.Load()), probes))
	r.set("index.bloom_checks_per_probe", ratio(float64(rp.src.bloom.Load()), probes))
	r.set("index.exact_checks_per_probe", ratio(float64(rp.src.exact.Load()), probes))
	r.set("index.hits_per_probe", ratio(float64(rp.probes.hits.Load()), probes))
	r.set("snapshot.materialize_per_query", ratio(float64(rp.src.materialize.Load()), queries))
	if err := replay(false); err != nil {
		return err
	}
	if asked := rp.batchAsked.Load(); asked > 0 {
		r.set("apps.batch_dedup_ratio", 1-float64(rp.batchRan)/float64(asked))
	}
	return nil
}

// buildScale is the corpus scale of the build workload.
const buildScale = 2

// minBuilds is how many builds an untraced build run makes at least.
const minBuilds = 5

// activatedLane is the lookup lane sent to each freshly built server.
var activatedLane = lane{Name: "lookup", Rate: 500, Mix: []kind{kLookup}}

// buildFlow repeats a from-scratch build of the scale-2 web corpus, each
// in a fresh process: pipeline.Run, snapshot.WriteFileV2, serve.New and a
// first lookup, then one second of lookups against the new server.
func buildFlow(r *run) error {
	if r.traced {
		return traceBuild(r)
	}
	snap := r.path("build.v2")
	var infos []buildInfo
	var setupS, buildS, allocMB, cpuUs, rss, lat []float64
	failed := 0
	start := time.Now()
	for k := 0; k < minBuilds || time.Since(start).Seconds() < r.seconds; k++ {
		b, err := r.build(buildScale, snap, false)
		if err != nil {
			return err
		}
		res, ops, err := r.drive(b.info.Addr, snap, r.seed+int64(k), phase{Name: fmt.Sprintf("activated%d", k), Seconds: 1, Lanes: []lane{activatedLane}}, sampleEvery)
		if err != nil {
			return err
		}
		peak, err := procPeakRSS(b.proc.pid())
		if err != nil {
			return err
		}
		if err := r.stop(b.proc); err != nil {
			return err
		}
		r.account(res)
		if err := r.checkSample(snap, res, ops); err != nil {
			return err
		}
		ms, f := latencies(res, ops, isSingle)
		lat, failed = append(lat, ms...), failed+f
		if k == 0 {
			r.genLateness(res)
		}
		infos = append(infos, b.info)
		setupS = append(setupS, b.setupS)
		buildS = append(buildS, b.buildS)
		allocMB = append(allocMB, b.info.AllocMB)
		cpuUs = append(cpuUs, b.cpuS*1e6)
		rss = append(rss, peak)
	}
	r.sameBuild(infos)
	d := summarize(lat, failed, 99)
	r.set("op_p50_ms", d.P50)
	r.set("query_p50_ms", d.P50)
	r.set("query_p99_ms", d.Tail)
	r.set("setup_s", median(setupS))
	r.set("build_s", median(buildS))
	r.set("build_alloc_mb", median(allocMB))
	r.set("server_cpu_us_per_op", median(cpuUs))
	r.set("server_rss_mb", median(rss))
	r.notes = append(r.notes, fmt.Sprintf("builds took %.3f s: %d mappings, %d pairs, snapshot sha256 %s",
		buildS, infos[0].Mappings, infos[0].Pairs, infos[0].SHA256[:16]))
	return nil
}

// traceBuild alternates untraced builds with builds that run the engine's
// stage hooks, and reports per-stage time, CPU use and allocation.
func traceBuild(r *run) error {
	snap := r.path("build.v2")
	var plain, hooked []float64
	var infos []buildInfo
	var ex buildExtras
	for k := 0; k < 4; k++ {
		traced := k%2 == 1
		b, err := r.build(buildScale, snap, traced)
		if err != nil {
			return err
		}
		infos = append(infos, b.info)
		switch {
		case k == 0:
			res, ops, err := r.drive(b.info.Addr, snap, r.seed, phase{Name: "activated", Seconds: 1, Lanes: []lane{activatedLane}}, 0)
			if err != nil {
				return err
			}
			r.account(res)
			r.genLateness(res)
			ms, failed := latencies(res, ops, isSingle)
			d := summarize(ms, failed, 99)
			r.set("query_p50_ms", d.P50)
			r.set("query_p99_ms", d.Tail)
		case k == 1:
			if err := b.proc.send("extras"); err != nil {
				return err
			}
			if err := b.proc.recv(&ex, 3*time.Minute); err != nil {
				return err
			}
		}
		if err := r.stop(b.proc); err != nil {
			return err
		}
		if traced {
			hooked = append(hooked, b.buildS)
		} else {
			plain = append(plain, b.buildS)
		}
	}
	r.sameBuild(infos)
	r.set("trace.overhead_pct", (median(hooked)-median(plain))/median(plain)*100)
	info := infos[len(infos)-1]
	procs := float64(runtime.NumCPU())
	root := r.tr.id()
	runEnd := info.Start + int64(info.RunS*1e9)
	writeEnd := runEnd + int64(info.WriteS*1e9)
	r.tr.record(span{ID: root, Req: "build", Name: "build", Start: info.Start, End: info.End})
	runID := r.tr.id()
	r.tr.record(span{ID: runID, Parent: root, Req: "build", Name: "pipeline.run", Start: info.Start, End: runEnd})
	r.tr.record(span{Parent: root, Req: "build", Name: "snapshot.write_v2", Start: runEnd, End: writeEnd})
	r.tr.record(span{Parent: root, Req: "build", Name: "serve.activate", Start: writeEnd, End: info.End})
	for _, st := range info.Stages {
		wall := float64(st.End-st.Start) / 1e9
		r.set("pipeline."+st.Name+"_s", wall)
		r.set("pipeline."+st.Name+"_cpu_util", ratio(st.CPU, wall*procs))
		r.set("pipeline."+st.Name+"_alloc_mb", st.AllocMB)
		r.tr.record(span{Parent: runID, Req: "build", Name: "pipeline." + st.Name, Start: st.Start, End: st.End})
	}
	r.set("extract.binary_tables", float64(info.Candidates))
	r.set("compat.edges", float64(info.Edges))
	r.set("compat.edge_yield", ratio(float64(info.Edges), float64(ex.BlockedPairs)))
	r.set("synthesis.mappings", float64(info.Mappings))
	r.set("snapshot.write_v2_s", info.WriteS)
	r.set("snapshot.open_ms", ex.OpenMs)
	r.set("serve.activate_ms", info.ActivateMs)
	return nil
}

// ingestLanes is the ingest workload's traffic: one held-out table per
// request at a fixed rate, beside lookups over uniform keys.
var ingestLanes = []lane{
	{Name: "ingest", Rate: 12, Mix: []kind{kIngest}},
	{Name: "lookup", Rate: 200, Mix: []kind{kLookup}},
}

// ingestFlow serves the scale-1 web corpus with live ingestion over it as
// base, ingests held-out tables beside a lookup lane, waits until all are
// applied, and checks the served snapshot against a from-scratch build.
func ingestFlow(r *run) error {
	srv, err := r.setupServing(1, true)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(srv.proc.pid())
	if err != nil {
		return err
	}
	s0, p0, err := readCounters(srv.addr)
	if err != nil {
		return err
	}
	pl := startPoller(srv.addr)
	res, ops, err := r.drive(srv.addr, srv.snap, r.seed, phase{Name: "fixed", Lead: leadSeconds, Seconds: r.seconds, Lanes: ingestLanes}, 0)
	if err != nil {
		pl.finish()
		return err
	}
	head, err := waitApplied(srv.addr, 2*time.Minute)
	samples := pl.finish()
	if err != nil {
		return err
	}
	cpu1, err := procCPU(srv.proc.pid())
	if err != nil {
		return err
	}
	rss, err := procPeakRSS(srv.proc.pid())
	if err != nil {
		return err
	}
	r.account(res)
	r.queryLatency(res, ops)
	r.genLateness(res)
	r.set("server_cpu_us_per_op", (cpu1-cpu0)/float64(completed(res))*1e6)
	r.set("server_rss_mb", rss)
	r.set("qos.waiting_max", maxWaiting(samples))
	s1, p1, err := readCounters(srv.addr)
	if err != nil {
		return err
	}
	throttled := counterDelta(s0, s1, p0, p1).throttled
	r.set("qos.throttled", float64(throttled))
	if throttled != 0 {
		r.problem("%d requests throttled during ingestion", throttled)
	}

	// Ack and visibility of each table, and the ingested rows in LSN order.
	var ack, visible []float64
	ackFailed, acked := 0, 0
	rows := make([]ingest.TableRow, head)
	for i, o := range ops {
		if o.Req.Kind != kIngest {
			continue
		}
		if !res.OK[i] {
			ackFailed++
			continue
		}
		lsn := res.LSN[i]
		if lsn < 1 || lsn > head {
			return fmt.Errorf("ingest acked LSN %d outside the log head %d", lsn, head)
		}
		rows[lsn-1] = *o.Req.Table
		acked++
		if !res.measured(i) {
			continue
		}
		due := res.T0 + res.Due[i]
		ack = append(ack, float64(res.End[i]-res.Due[i])/1e6)
		for _, s := range samples {
			if s.Applied >= lsn {
				visible = append(visible, float64(s.At-due)/1e6)
				break
			}
		}
	}
	if int(head) != acked {
		r.problem("log head %d, but %d tables acknowledged", head, acked)
	}
	da, dv := summarize(ack, ackFailed, 90), summarize(visible, ackFailed, 90)
	r.set("ingest_ack_p50_ms", da.P50)
	r.set("ingest_ack_p90_ms", da.Tail)
	r.set("ingest_visible_p50_ms", dv.P50)
	r.set("op_p50_ms", dv.P50)
	r.set("ingest_visible_p90_ms", dv.Tail)
	r.notes = append(r.notes, fmt.Sprintf("%d tables ingested, %d measured (flush: one fsync per append); visibility p%v", acked, len(ack), dv.TailP))

	// The served snapshot must equal a from-scratch synthesis over the base
	// and the ingested tables.
	base := corpusgen.GenerateWeb(corpusgen.Options{Seed: corpusSeed, Scale: 1}).Tables
	tables := append([]*table.Table{}, base...)
	for i := range rows {
		tables = append(tables, rows[i].Table(len(base)+i))
	}
	got, err := getBytes(srv.addr, "/v1/corpora/default/snapshot")
	if err != nil {
		return err
	}
	t0 := time.Now()
	cold, err := pipeline.New(pipeline.DefaultConfig()).Run(context.Background(), tables)
	if err != nil {
		return err
	}
	coldS := time.Since(t0).Seconds()
	var want bytes.Buffer
	if err := snapshot.WriteV2(&want, cold.Mappings); err != nil {
		return err
	}
	r.attempted++
	if !bytes.Equal(got, want.Bytes()) {
		r.failed++
		r.problem("served snapshot after ingest (%d bytes) differs from a from-scratch build (%d bytes)", len(got), want.Len())
	}
	if r.traced {
		return traceIngest(r, base, tables, rows, samples, cold, coldS, da.P50)
	}
	return nil
}

// traceIngest measures the ingest path's layers in-process: log appends
// with fsync, the incremental synthesis runs replayed at the batch
// boundaries the server reported, a cold run, and the publish step.
func traceIngest(r *run, base, tables []*table.Table, rows []ingest.TableRow, samples []sample, cold *pipeline.Result, coldS, ackP50 float64) error {
	lg, err := ingest.OpenLog(r.path("append.mlog"))
	if err != nil {
		return err
	}
	var appendMs []float64
	for i := range rows {
		t0 := time.Now()
		if _, err := lg.Append(rows[i : i+1]); err != nil {
			lg.Close()
			return err
		}
		appendMs = append(appendMs, float64(time.Since(t0))/1e6)
	}
	if err := lg.Close(); err != nil {
		return err
	}
	r.set("ingest.append_ms", median(appendMs))
	r.set("ingest.ack_outside_append_ms", math.Max(ackP50-median(appendMs), 0))

	// Batch boundaries: each distinct applied LSN the server reported.
	var bounds []int
	lag := int64(0)
	for _, s := range samples {
		if s.Applied > 0 && (len(bounds) == 0 || int(s.Applied) != bounds[len(bounds)-1]) {
			bounds = append(bounds, int(s.Applied))
		}
		lag = max(lag, s.Head-s.Applied)
	}
	if len(bounds) == 0 || bounds[len(bounds)-1] != len(rows) {
		bounds = append(bounds, len(rows)) // the final run landed after the last sample
	}
	r.set("ingest.lag_max", float64(lag))
	r.set("ingest.tables_per_run", ratio(float64(len(rows)), float64(len(bounds))))
	eng := pipeline.New(pipeline.DefaultConfig())
	var stages []stageRecord
	eng.SetInstrumentation(stageHooks(&stages))
	inc := pipeline.NewIncrementalState()
	var runS []float64
	stageS := map[string][]float64{}
	hits, misses := 0, 0
	var last *pipeline.Result
	for k, b := range bounds {
		stages = stages[:0]
		t0 := time.Now()
		res, err := eng.RunIncremental(context.Background(), tables[:len(base)+b], inc)
		if err != nil {
			return err
		}
		t1 := time.Now()
		last = res
		req := fmt.Sprintf("incremental-%d", k)
		id := r.tr.id()
		r.tr.record(span{ID: id, Req: req, Name: "pipeline.incremental", Start: t0.UnixNano(), End: t1.UnixNano()})
		for _, st := range stages {
			r.tr.record(span{Parent: id, Req: req, Name: "pipeline.incremental." + st.Name, Start: st.Start, End: st.End})
		}
		if k == 0 && len(bounds) > 1 {
			continue // the first run seeds the empty component cache
		}
		runS = append(runS, t1.Sub(t0).Seconds())
		for _, st := range stages {
			stageS[st.Name] = append(stageS[st.Name], float64(st.End-st.Start)/1e9)
		}
		h, m, _ := inc.CacheStats()
		hits, misses = hits+h, misses+m
	}
	if last != nil {
		var a, b bytes.Buffer
		if err := snapshot.WriteV2(&a, last.Mappings); err != nil {
			return err
		}
		if err := snapshot.WriteV2(&b, cold.Mappings); err != nil {
			return err
		}
		r.attempted++
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			r.failed++
			r.problem("incremental replay differs from the cold run")
		}
	}
	r.set("pipeline.incremental_s", median(runS))
	for _, name := range []string{"extract", "graph", "synthesize"} {
		if v := stageS[name]; len(v) > 0 {
			r.set("pipeline.incremental_"+name+"_s", median(v))
		}
	}
	r.set("pipeline.component_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	r.set("pipeline.cold_s", coldS)

	// Tracing overhead: cold runs with the stage hooks installed, alternated
	// with more runs without them.
	plain, hooked := []float64{coldS}, []float64(nil)
	for _, e := range []*pipeline.Engine{eng, pipeline.New(pipeline.DefaultConfig()), eng} {
		t0 := time.Now()
		if _, err := e.Run(context.Background(), tables); err != nil {
			return err
		}
		if e == eng {
			hooked = append(hooked, time.Since(t0).Seconds())
		} else {
			plain = append(plain, time.Since(t0).Seconds())
		}
	}
	r.set("trace.overhead_pct", (median(hooked)-median(plain))/median(plain)*100)

	var publish []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		var buf bytes.Buffer
		if err := snapshot.WriteV2(&buf, cold.Mappings); err != nil {
			return err
		}
		h, err := snapshot.OpenBytes(buf.Bytes())
		if err != nil {
			return err
		}
		publish = append(publish, float64(time.Since(t0))/1e6)
		_ = h.Close() // heap-backed handle
	}
	r.set("snapshot.publish_ms", median(publish))
	return nil
}
