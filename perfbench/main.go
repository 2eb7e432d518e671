// Command perfbench is the repository's benchmark. It builds the mapping
// service's three paths from a seeded synthetic web corpus — the query
// path, the from-scratch build path and the live-ingestion path — drives
// them open loop from a separate generator process, checks the answers,
// and prints one JSON result line.
//
//	go run . --workload lookup-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, measured by timing calls into each
// layer's public functions from this package. README.md describes the
// workloads and every metric. The binary re-executes itself for its child
// processes (-role build, serve or gen).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics every untraced run reports, with
// their units. Latency tails are not among them: on the shared two-vCPU
// machines the benchmark runs on, hypervisor steal sets them (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"server_cpu_us_per_op", "us"},
	{"server_rss_mb", "MB"},
	{"build_s", "s"},
	{"build_alloc_mb", "MB"},
}

// perLayer lists the metrics every traced run reports: the latency
// figures of single workloads, then per-layer figures. A layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_max_qps", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p90_ms", "ms"},
	{"ingest_ack_p50_ms", "ms"},
	{"ingest_ack_p90_ms", "ms"},
	{"ingest_visible_p50_ms", "ms"},
	{"ingest_visible_p90_ms", "ms"},
	{"http.outside_handler_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.self_us", "us"},
	{"serve.alloc_bytes_per_op", "B"},
	{"serve.gc_per_kop", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.batch_backpressure", "count"},
	{"qos.waiting_max", "count"},
	{"qos.throttled", "count"},
	{"apps.session_us.lookup", "us"},
	{"apps.session_us.autofill", "us"},
	{"apps.session_us.autocorrect", "us"},
	{"apps.session_us.autojoin", "us"},
	{"apps.self_us", "us"},
	{"apps.probes_per_query", "count"},
	{"apps.batch_dedup_ratio", "ratio"},
	{"index.probe_us", "us"},
	{"index.postings_per_probe", "count"},
	{"index.bloom_checks_per_probe", "count"},
	{"index.exact_checks_per_probe", "count"},
	{"index.hits_per_probe", "count"},
	{"snapshot.materialize_per_query", "count"},
	{"pipeline.index_s", "s"},
	{"pipeline.extract_s", "s"},
	{"pipeline.graph_s", "s"},
	{"pipeline.partition_s", "s"},
	{"pipeline.resolve_s", "s"},
	{"pipeline.index_cpu_util", "ratio"},
	{"pipeline.extract_cpu_util", "ratio"},
	{"pipeline.graph_cpu_util", "ratio"},
	{"pipeline.partition_cpu_util", "ratio"},
	{"pipeline.resolve_cpu_util", "ratio"},
	{"pipeline.index_alloc_mb", "MB"},
	{"pipeline.extract_alloc_mb", "MB"},
	{"pipeline.graph_alloc_mb", "MB"},
	{"pipeline.partition_alloc_mb", "MB"},
	{"pipeline.resolve_alloc_mb", "MB"},
	{"extract.binary_tables", "count"},
	{"compat.edges", "count"},
	{"compat.edge_yield", "ratio"},
	{"synthesis.mappings", "count"},
	{"snapshot.write_v2_s", "s"},
	{"snapshot.open_ms", "ms"},
	{"serve.activate_ms", "ms"},
	{"ingest.append_ms", "ms"},
	{"ingest.ack_outside_append_ms", "ms"},
	{"pipeline.incremental_s", "s"},
	{"pipeline.incremental_extract_s", "s"},
	{"pipeline.incremental_graph_s", "s"},
	{"pipeline.incremental_synthesize_s", "s"},
	{"pipeline.cold_s", "s"},
	{"pipeline.component_cache_hit_ratio", "ratio"},
	{"snapshot.publish_ms", "ms"},
	{"ingest.tables_per_run", "count"},
	{"ingest.lag_max", "count"},
	{"gen.late_p99_ms", "ms"},
	{"host.steal_pct", "%"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ Name, Unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	role := flag.String("role", "", "child process role: build, serve or gen (set by the benchmark itself)")
	spec := flag.String("spec", "", "child process input as JSON (set by the benchmark itself)")
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the corpus and the request streams")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	flag.Parse()
	if *role != "" {
		if err := runChild(*role, *spec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *role, err)
			os.Exit(1)
		}
		return
	}
	if err := runBenchmark(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func runChild(role, spec string) error {
	switch role {
	case "build":
		var s buildSpec
		if err := json.Unmarshal([]byte(spec), &s); err != nil {
			return err
		}
		return runBuild(s)
	case "serve":
		var s serveSpec
		if err := json.Unmarshal([]byte(spec), &s); err != nil {
			return err
		}
		return runServe(s)
	case "gen":
		var s genSpec
		if err := json.Unmarshal([]byte(spec), &s); err != nil {
			return err
		}
		return runGen(s)
	}
	return fmt.Errorf("unknown role %q", role)
}

func runBenchmark(workload string, seed int64, seconds int, traced bool) error {
	flow, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames(), ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d-%d", workload, seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: workload, seed: seed, seconds: float64(seconds), traced: traced, dir: dir,
		values: map[string]float64{}, tr: &tracer{},
	}
	defer r.stopAll()
	steal0, t0 := hostSteal(), time.Now()
	if err := flow(r); err != nil {
		return err
	}
	r.set("host.steal_pct", (hostSteal()-steal0)/(time.Since(t0).Seconds()*float64(runtime.NumCPU()))*100)
	if traced {
		spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
		if err := r.tr.write(spans); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", spans)
		r.tr.selfTable(os.Stdout)
	}
	return r.report()
}

// report prints every measured value by name, then the result line.
func (r *run) report() error {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, r.values[n], units[n])
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Printf("note: %s\n", n)
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			if !r.traced {
				return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			v = 0 // layer not exercised by this workload
		}
		if math.IsNaN(v) {
			return fmt.Errorf("metric %s is NaN", d.Name)
		}
		if math.IsInf(v, 1) {
			// Failures beyond the percentile: the latency is unbounded.
			v = math.MaxFloat32
			res.Correct = false
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
