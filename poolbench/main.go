// Command poolbench is the repository benchmark. It measures the
// paper's one-round pooled reconstruction as its users see it, on three
// workloads:
//
//   - sync-exact: open-loop Poisson single-signal POST /v1/decode
//     against a real pooledd frontend federated to one pooledd -worker,
//     with a rate ladder that climbs past the capacity knee;
//   - campaign-gaussian: two weighted tenants running closed-loop
//     B=128 gaussian campaigns (POST /v1/campaigns, then SSE until done)
//     against the same fleet with a write-ahead log;
//   - lib-sweep: the pooled library in process, measuring and decoding
//     batches at n=3·10⁴ for several m around the MN threshold.
//
// Inputs come from the -seed argument and are generated, measured and
// decoded in process before timing starts; every result the program
// returns must equal that reference bit for bit, or the run fails.
// With -trace 0 the run prints the end-to-end metrics; with -trace 1 it
// runs the workload twice (tracing off, then on with -trace-sample 1)
// and prints the per-layer breakdown. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run from the repository root with the wrapper script,
// which compiles pooledd and this command from source first:
//
//	bash poolbench/run.sh --workload campaign-gaussian --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
)

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds float64
	traced  bool
	pooledd string // pooledd binary
	workdir string // logs and WAL directories
}

var workloads = map[string]func(context.Context, config, *report) error{
	"sync-exact":        runSync,
	"campaign-gaussian": runCampaign,
	"lib-sweep":         runLib,
}

func main() {
	workload := flag.String("workload", "", "sync-exact, campaign-gaussian or lib-sweep")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	pooledd := flag.String("pooledd", "", "pooledd binary (the HTTP workloads start it)")
	workdir := flag.String("workdir", ".bench_build/run", "directory for server logs and WALs")
	flag.Parse()
	os.Exit(run(*workload, config{
		seed: *seed, seconds: float64(*seconds), traced: *traced == 1,
		pooledd: *pooledd, workdir: *workdir,
	}))
}

func run(workload string, cfg config) int {
	fn, ok := workloads[workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "poolbench: unknown workload %q\n", workload)
		return 2
	}
	if cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "poolbench: -seconds must be at least 1\n")
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "poolbench: %v\n", err)
		return 1
	}
	// Every exit path stops the pooledd children: normal return, a
	// workload error, and a signal from whoever runs the benchmark.
	defer killChildren()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := newReport(workload, cfg.traced)
	if err := fn(ctx, cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "poolbench: %s: %v\n", workload, err)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "poolbench: interrupted")
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "poolbench: %v\n", err)
		return 1
	}
	if rep.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "poolbench: %d results differ from the in-process reference\n", rep.mismatches)
		return 1
	}
	return 0
}

// metric is one reported number with the sample count behind it.
type metric struct {
	name, unit string
	value      float64
	n          int    // samples or base count behind the value
	note       string // what the value is, for the readable summary
}

// report collects a run's outcome. The metric names it may carry are
// fixed: e2eMetrics with -trace 0, layerMetrics with -trace 1.
type report struct {
	workload   string
	traced     bool
	attempted  int
	failed     int
	mismatches int
	values     map[string]metric
	extra      []metric // printed in the summary, not part of the result
}

func newReport(workload string, traced bool) *report {
	return &report{workload: workload, traced: traced, values: map[string]metric{}}
}

// set records a metric; the unit comes from the fixed tables.
func (r *report) set(name string, value float64, n int, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value, note = 0, note+" (undefined: no base)"
	}
	r.values[name] = metric{name: name, unit: unitOf(name), value: value, n: n, note: note}
}

// info records a number that is printed with the metrics but is not
// one of the workload's result metrics.
func (r *report) info(name, unit string, value float64, n int, note string) {
	r.extra = append(r.extra, metric{name: name, unit: unit, value: value, n: n, note: note})
}

// mismatch records an output that differs from the reference.
func (r *report) mismatch(format string, args ...any) {
	if r.mismatches < 5 {
		fmt.Fprintf(os.Stderr, "poolbench: MISMATCH "+format+"\n", args...)
	}
	r.mismatches++
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes one readable line per metric, then the JSON result as
// the last line. Metrics a workload does not exercise read 0 with a
// zero sample count (the layer is bypassed).
func (r *report) print(w *os.File) error {
	table := e2eMetrics
	if r.traced {
		table = layerMetrics
	}
	out := jsonResult{
		Correct:   r.mismatches == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(table)),
	}
	errFrac := 0.0
	if r.attempted > 0 {
		errFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-18s %-40s %14.6g %-8s n=%d\n", r.workload, "error_frac", errFrac, "ratio", r.attempted)
	for _, d := range table {
		m, ok := r.values[d.name]
		if !ok {
			m = metric{name: d.name, unit: d.unit, note: "layer not exercised by this workload"}
		}
		fmt.Fprintf(w, "%-18s %-40s %14.6g %-8s n=%-6d %s\n", r.workload, d.name, m.value, d.unit, m.n, m.note)
		out.Metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
	}
	for _, m := range r.extra {
		fmt.Fprintf(w, "%-18s %-40s %14.6g %-8s n=%-6d %s (not gated)\n", r.workload, m.name, m.value, m.unit, m.n, m.note)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports with
// -trace 0; BENCHMARK.json lists the same names. Each workload fills
// them with its own operation: a sync request, a campaign job or a
// library batch (see the notes the workloads attach).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"recovery_frac", "ratio"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

// layerMetrics are the per-layer metrics every workload reports with
// -trace 1, grouped by the module they time.
var layerMetrics = []metricDef{
	{"pooledd.http_self_ms.p50", "ms"},
	{"pooledd.http_self_ms.p99", "ms"},
	{"pooledd.sse_lag_ms.p50", "ms"},
	{"pooledd.sse_lag_ms.p99", "ms"},
	{"pooledd.frontend_cpu_ms_per_job", "ms"},
	{"pooledd.worker_cpu_ms_per_job", "ms"},
	{"campaign.admission_ms.p50", "ms"},
	{"campaign.admission_ms.p99", "ms"},
	{"campaign.tenant_queue_ms.p50", "ms"},
	{"campaign.tenant_queue_ms.p99", "ms"},
	{"campaign.requeues_per_job", "ratio"},
	{"campaign.refused_per_campaign", "ratio"},
	{"campaign.share.a", "ratio"},
	{"campaign.share.b", "ratio"},
	{"engine.shard_queue_ms.p50", "ms"},
	{"engine.shard_queue_ms.p99", "ms"},
	{"engine.rejected_frac", "ratio"},
	{"engine.decode_batch_ms_per_signal", "ms"},
	{"remote.serialize_ms.p50", "ms"},
	{"remote.serialize_ms.p99", "ms"},
	{"remote.network_ms.p50", "ms"},
	{"remote.network_ms.p99", "ms"},
	{"remote.worker_queue_ms.p50", "ms"},
	{"remote.worker_queue_ms.p99", "ms"},
	{"remote.worker_decode_ms.p50", "ms"},
	{"remote.worker_decode_ms.p99", "ms"},
	{"remote.jobs_per_frame", "ratio"},
	{"remote.frames", "count"},
	{"remote.retries", "count"},
	{"remote.saturated", "count"},
	{"remote.lone_rtt_ms", "ms"},
	{"mn.decode_ms", "ms"},
	{"decoder.refined_ms", "ms"},
	{"query.execute_batch_us_per_signal", "us"},
	{"pooling.build_s", "s"},
	{"wal.appends_per_job", "ratio"},
	{"wal.bytes_per_job", "B"},
	{"wal.fsync_ms.p50", "ms"},
	{"trace.overhead_frac.latency_p50_ms", "ratio"},
	{"trace.overhead_frac.throughput_per_s", "ratio"},
	{"trace.joined", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.cpu_frac", "ratio"},
	{"path.client_p50_ms", "ms"},
	{"path.self_sum_p50_ms", "ms"},
	{"path.unexplained_ms", "ms"},
	{"jobs", "count"},
}

func unitOf(name string) string {
	for _, t := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range t {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("poolbench: metric " + name + " is in neither table")
}
