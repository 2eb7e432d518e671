package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// run is one benchmark invocation's state.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	dir      string

	values    map[string]float64
	problems  []string // failed correctness checks
	notes     []string
	attempted int
	failed    int
	tr        *tracer

	live     []*child
	material map[string]*material
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// stopAll stops every child process still running.
func (r *run) stopAll() {
	for _, c := range r.live {
		_ = c.stop()
	}
	r.live = nil
}

func (r *run) start(role string, spec any) (*child, error) {
	c, err := startChild(role, spec)
	if err != nil {
		return nil, err
	}
	r.live = append(r.live, c)
	return c, nil
}

// stop stops one child and forgets it.
func (r *run) stop(c *child) error {
	for i, l := range r.live {
		if l == c {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
	return c.stop()
}

func (r *run) path(name string) string { return filepath.Join(r.dir, name) }

func (r *run) materialFor(snap string) (*material, error) {
	if m, ok := r.material[snap]; ok {
		return m, nil
	}
	m, err := loadMaterial(snap)
	if err != nil {
		return nil, err
	}
	if r.material == nil {
		r.material = map[string]*material{}
	}
	r.material[snap] = m
	return m, nil
}

// built is one from-scratch build in a fresh process, which keeps serving
// the result until stopped.
type built struct {
	info   buildInfo
	setupS float64 // process start until the corpus is generated
	buildS float64 // "go" until the first lookup is answered
	cpuS   float64 // build process CPU over buildS
	proc   *child
}

// build starts a build process over the web corpus at scale and times it
// from "go" until its server answers a first lookup.
func (r *run) build(scale float64, out string, trace bool) (*built, error) {
	t0 := time.Now()
	c, err := r.start("build", buildSpec{Seed: corpusSeed, Scale: scale, Out: out, Trace: trace})
	if err != nil {
		return nil, err
	}
	var ready struct{ Ready bool }
	if err := c.recv(&ready, 2*time.Minute); err != nil {
		return nil, err
	}
	b := &built{setupS: time.Since(t0).Seconds(), proc: c}
	cpu0, err := procCPU(c.pid())
	if err != nil {
		return nil, err
	}
	tgo := time.Now()
	if err := c.send("go"); err != nil {
		return nil, err
	}
	if err := c.recv(&b.info, 3*time.Minute); err != nil {
		return nil, err
	}
	var first lookupView
	if err := getJSON(b.info.Addr, "/v1/lookup?key="+url.QueryEscape(b.info.ProbeKey), &first); err != nil {
		return nil, err
	}
	b.buildS = time.Since(tgo).Seconds()
	cpu1, err := procCPU(c.pid())
	if err != nil {
		return nil, err
	}
	b.cpuS = cpu1 - cpu0
	r.attempted++
	if !first.Found {
		r.failed++
		r.problem("first lookup of %q after the build found nothing", b.info.ProbeKey)
	}
	return b, nil
}

// sameBuild checks that repeated builds of one corpus produced the same
// mappings, pairs and snapshot bytes.
func (r *run) sameBuild(builds []buildInfo) {
	for _, b := range builds[1:] {
		a := builds[0]
		if b.Mappings != a.Mappings || b.Pairs != a.Pairs || b.SHA256 != a.SHA256 {
			r.failed++
			r.problem("builds differ: %d mappings/%d pairs/%s vs %d/%d/%s", a.Mappings, a.Pairs, a.SHA256[:12], b.Mappings, b.Pairs, b.SHA256[:12])
		}
	}
}

// server is a running server process.
type server struct {
	addr string
	snap string
	proc *child
}

// setups is how many times an untraced run sets up, reporting the median.
const setups = 7

// setupServing builds the corpus at scale from scratch and starts a
// server process over the snapshot, setups times (once when traced),
// reporting the median set-up, build time and build allocation. The last
// server keeps running.
func (r *run) setupServing(scale float64, ingest bool) (*server, error) {
	n := setups
	if r.traced {
		n = 1
	}
	var setupS, buildS, allocMB []float64
	var infos []buildInfo
	var srv *server
	for k := 0; k < n; k++ {
		if srv != nil {
			if err := r.stop(srv.proc); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		snap := r.path(fmt.Sprintf("setup-%d.v2", k))
		b, err := r.build(scale, snap, false)
		if err != nil {
			return nil, err
		}
		if err := r.stop(b.proc); err != nil {
			return nil, err
		}
		spec := serveSpec{Snapshot: snap}
		if ingest {
			spec.IngestDir = r.path(fmt.Sprintf("ingest-%d", k))
			if err := os.MkdirAll(spec.IngestDir, 0o755); err != nil {
				return nil, err
			}
			spec.IngestSeed, spec.IngestScale = corpusSeed, scale
		}
		c, err := r.start("serve", spec)
		if err != nil {
			return nil, err
		}
		var up struct{ Addr string }
		if err := c.recv(&up, time.Minute); err != nil {
			return nil, err
		}
		if err := getJSON(up.Addr, "/v1/healthz", &map[string]any{}); err != nil {
			return nil, err
		}
		srv = &server{addr: up.Addr, snap: snap, proc: c}
		setupS = append(setupS, time.Since(t0).Seconds())
		buildS = append(buildS, b.buildS)
		allocMB = append(allocMB, b.info.AllocMB)
		infos = append(infos, b.info)
	}
	r.sameBuild(infos)
	r.notes = append(r.notes, fmt.Sprintf("set-up builds took %.3f s", buildS))
	r.set("setup_s", median(setupS))
	r.set("build_s", median(buildS))
	r.set("build_alloc_mb", median(allocMB))
	return srv, nil
}

// drive runs one generator process against addr and returns what it
// measured together with the schedule it sent, rebuilt from the seed.
func (r *run) drive(addr, snap string, seed int64, ph phase, sample int) (*genResult, []op, error) {
	out := r.path("gen-" + ph.Name + ".json")
	spec := genSpec{Addr: addr, Snapshot: snap, Seed: seed, Phase: ph, Conns: runtime.NumCPU(), Sample: sample, Out: out}
	c, err := r.start("gen", spec)
	if err != nil {
		return nil, nil, err
	}
	if err := c.wait(time.Duration(ph.Seconds)*time.Second + 2*time.Minute); err != nil {
		r.stop(c)
		return nil, nil, fmt.Errorf("generator: %w", err)
	}
	r.stop(c)
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, nil, err
	}
	var res genResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, nil, err
	}
	m, err := r.materialFor(snap)
	if err != nil {
		return nil, nil, err
	}
	ops := schedule(m, seed, ph)
	if len(ops) != len(res.Due) {
		return nil, nil, fmt.Errorf("generator sent %d ops, schedule has %d", len(res.Due), len(ops))
	}
	return &res, ops, nil
}

// account adds a measured phase's operations to the run's counts.
func (r *run) account(res *genResult) {
	for _, ok := range res.OK {
		r.attempted++
		if !ok {
			r.failed++
		}
	}
	for _, e := range res.Errors {
		r.notes = append(r.notes, e)
	}
}

// measured reports whether operation i was due after the lead-in.
func (res *genResult) measured(i int) bool { return res.Due[i] >= res.Lead }

// measuredOnly returns the result without its lead-in operations.
func (res *genResult) measuredOnly() *genResult {
	m := &genResult{T0: res.T0}
	for i := range res.Due {
		if res.measured(i) {
			m.Due, m.Sent, m.End = append(m.Due, res.Due[i]), append(m.Sent, res.Sent[i]), append(m.End, res.End[i])
			m.OK = append(m.OK, res.OK[i])
		}
	}
	return m
}

// latencies returns, for the measured ops pred selects, the latency from
// due to completion in milliseconds and how many failed.
func latencies(res *genResult, ops []op, pred func(request) bool) (ms []float64, failed int) {
	for i, o := range ops {
		if !res.measured(i) || !pred(o.Req) {
			continue
		}
		if !res.OK[i] {
			failed++
			continue
		}
		ms = append(ms, float64(res.End[i]-res.Due[i])/1e6)
	}
	return ms, failed
}

func isSingle(q request) bool { return q.Kind <= kAutoJoin }
func isBatch(q request) bool  { return q.Kind == kBatchFill }

// queryLatency records query_p50_ms and query_p99_ms from the single
// requests of a phase.
func (r *run) queryLatency(res *genResult, ops []op) dist {
	ms, failed := latencies(res, ops, isSingle)
	d := summarize(ms, failed, 99)
	r.set("query_p50_ms", d.P50)
	r.set("query_p99_ms", d.Tail)
	if d.TailP != 99 {
		r.notes = append(r.notes, fmt.Sprintf("query_p99_ms is p%v: %d requests leave fewer than %d beyond p99", d.TailP, d.N, minBeyond))
	}
	return d
}

// genLateness records the generator's lateness and flags a run whose
// generator fell behind its schedule.
func (r *run) genLateness(res *genResult) {
	m := res.measuredOnly()
	late := summarize(lateness(m.Due, m.Sent), 0, 99)
	r.set("gen.late_p99_ms", late.Tail)
	if late.Tail > genBehindMs {
		r.notes = append(r.notes, fmt.Sprintf("generator fell behind: lateness p%v = %.3f ms (flag above %.1f ms)", late.TailP, late.Tail, genBehindMs))
	}
}

// checkSample compares the sampled responses of a phase with in-process
// answers over the same snapshot; each mismatch is a failed operation.
func (r *run) checkSample(snap string, res *genResult, ops []op) error {
	h, ix, sess, err := openSession(snap)
	if err != nil {
		return err
	}
	defer h.Close()
	checked, bad, err := checkResponses(sess, ix, ops, res.Bodies)
	if err != nil {
		return err
	}
	if checked == 0 {
		r.problem("no response sampled for the correctness check")
	}
	for _, i := range bad {
		r.failed++
		r.problem("%s response %d differs from apps.Session: %s", ops[i].Req.Kind, i, res.Bodies[i])
	}
	r.notes = append(r.notes, fmt.Sprintf("checked %d sampled responses against apps.Session, %d differ", checked, len(bad)))
	return nil
}

func getJSON(addr, path string, v any) error {
	body, err := getBytes(addr, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func getBytes(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// promValues reads the named unlabelled samples of a /v1/metrics page.
func promValues(addr string, names ...string) (map[string]float64, error) {
	body, err := getBytes(addr, "/v1/metrics")
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && want[f[0]] {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, err
			}
			out[f[0]] = v
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/v1/metrics has no %s", n)
		}
	}
	return out, nil
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Batch struct {
		Rejected     int64 `json:"rejected"`
		Backpressure int64 `json:"backpressure"`
	} `json:"batch"`
	Tenants map[string]struct {
		Throttled int64 `json:"throttled"`
	} `json:"tenants"`
	FairQueue struct {
		WaitingInteractive int `json:"waiting_interactive"`
		WaitingBatch       int `json:"waiting_batch"`
	} `json:"fair_queue"`
	Ingest *struct {
		HeadLSN    int64 `json:"head_lsn"`
		AppliedLSN int64 `json:"applied_lsn"`
	} `json:"ingest"`
}

func (s serverStats) throttled() int64 {
	n := s.Batch.Rejected
	for _, t := range s.Tenants {
		n += t.Throttled
	}
	return n
}

// sample is one observation of the server's stats by the poller.
type sample struct {
	At      int64 // Unix nanoseconds
	Applied int64
	Head    int64
	Waiting int
}

// poller samples GET /v1/corpora/default/stats every pollEvery until
// stopped: the staleness report for ingest visibility and the fair queue's
// waiters.
type poller struct {
	stop chan struct{}
	done chan []sample
}

const pollEvery = 10 * time.Millisecond

func startPoller(addr string) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan []sample, 1)}
	go func() {
		var out []sample
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			var st serverStats
			if err := getJSON(addr, "/v1/corpora/default/stats", &st); err == nil {
				s := sample{At: time.Now().UnixNano(), Waiting: st.FairQueue.WaitingInteractive + st.FairQueue.WaitingBatch}
				if st.Ingest != nil {
					s.Applied, s.Head = st.Ingest.AppliedLSN, st.Ingest.HeadLSN
				}
				out = append(out, s)
			}
			select {
			case <-p.stop:
				p.done <- out
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *poller) finish() []sample {
	close(p.stop)
	return <-p.done
}

func maxWaiting(samples []sample) float64 {
	m := 0
	for _, s := range samples {
		m = max(m, s.Waiting)
	}
	return float64(m)
}

// waitApplied polls until the corpus has applied its whole log.
func waitApplied(addr string, timeout time.Duration) (int64, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var st serverStats
		if err := getJSON(addr, "/v1/corpora/default/stats", &st); err != nil {
			return 0, err
		}
		if st.Ingest != nil && st.Ingest.AppliedLSN == st.Ingest.HeadLSN {
			return st.Ingest.HeadLSN, nil
		}
		time.Sleep(pollEvery)
	}
	return 0, fmt.Errorf("ingest not applied within %v", timeout)
}

// statsDelta is what a phase changed in a server's counters.
type statsDelta struct {
	allocBytes, gcCycles    float64
	hits, misses            int64
	backpressure, throttled int64
}

func readCounters(addr string) (serverStats, map[string]float64, error) {
	var st serverStats
	if err := getJSON(addr, "/v1/stats", &st); err != nil {
		return st, nil, err
	}
	pm, err := promValues(addr, "go_memstats_alloc_bytes_total", "go_gc_cycles_total")
	return st, pm, err
}

func counterDelta(s0, s1 serverStats, p0, p1 map[string]float64) statsDelta {
	return statsDelta{
		allocBytes:   p1["go_memstats_alloc_bytes_total"] - p0["go_memstats_alloc_bytes_total"],
		gcCycles:     p1["go_gc_cycles_total"] - p0["go_gc_cycles_total"],
		hits:         s1.Cache.Hits - s0.Cache.Hits,
		misses:       s1.Cache.Misses - s0.Cache.Misses,
		backpressure: s1.Batch.Backpressure - s0.Batch.Backpressure,
		throttled:    s1.throttled() - s0.throttled(),
	}
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
