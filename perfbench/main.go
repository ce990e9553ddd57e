// Command perfbench is SysProf's end-to-end benchmark. It drives the real
// monitoring pipeline — simulated fleet (sim/simos/simnet) → kprof → LPA
// and per-CPU buffers → dissemination daemon → PBIO → pub-sub over
// loopback TCP → GPA ingest, query and federation frontend — plus the
// scenario harness, through each layer's public functions.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric; with --trace 1 the workload runs once
// untraced and once with spans recorded around the benchmark's calls into
// each layer, and the JSON object holds the per-layer metrics. Spans are
// written to .bench_build/perfbench-trace/. See README.md for the
// workloads, the metrics and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil: untraced run
}

// outcome is one workload run: its operation counts, the end-to-end
// metrics it measured, the per-layer counters it read, and every
// correctness violation it found.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	layers            map[string]float64
	errs              []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check records a correctness violation when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner. BENCHMARK.json lists
// all but the held-back ones.
var workloads = map[string]func(runConfig) (*outcome, error){
	"fleet-live":      runFleetLive,
	"gpa-replay":      runGPAReplay,
	"query-federated": runQueryFederated,
	"chaos-fleet":     runChaosFleet,
}

// heldBack names workloads that run by name but are left out of
// BENCHMARK.json, each with the program fault that makes its checks fail
// on today's code.
var heldBack = map[string]string{
	"fleet-live": "the GPA pairs a long-lived flow's records with the oldest pending peer, so 2-CPU servers' out-of-order buffers cross consecutive exchanges",
}

// End-to-end metrics with their units, in report order. Every workload
// measures each of them; README.md says what each means per workload.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"allocs_per_op", "count"},
	{"heap_live_mb", "MB"},
}

// layerUnits lists every per-layer metric with its unit. A layer a
// workload does not drive reads 0.
var layerUnits = []struct{ name, unit string }{
	{"sim.ns_per_event", "ns"},
	{"sim.events_per_s", "1/s"},
	{"kprof.emit_ns_per_event", "ns"},
	{"core.lpa_ns_per_event", "ns"},
	{"core.interactions", "count"},
	{"core.buffer_switches", "count"},
	{"core.buffer_drops", "count"},
	{"dissem.records_per_batch", "count"},
	{"dissem.onfull_us_per_batch", "us"},
	{"pbio.encode_plain_ns_per_record", "ns"},
	{"pbio.encode_z_ns_per_record", "ns"},
	{"pbio.decode_ns_per_record", "ns"},
	{"pubsub.wire_bytes_per_record", "B"},
	{"pubsub.publish_us_per_batch", "us"},
	{"pubsub.blocked_ms", "ms"},
	{"pubsub.queue_len_max", "count"},
	{"pubsub.recv_us_per_batch", "us"},
	{"pubsub.read_syscalls_per_record", "count"},
	{"gpa.ingest_ns_per_record", "ns"},
	{"gpa.correlated", "count"},
	{"gpa.uncorrelated", "count"},
	{"gpa.stale_pruned", "count"},
	{"gpa.shard_query_us", "us"},
	{"gpa.frontend_query_us", "us"},
	{"gpa.merge_us", "us"},
	{"gpa.history_page_bytes", "B"},
	{"query.point_p50_ms", "ms"},
	{"query.point_p99_ms", "ms"},
	{"query.history_ms", "ms"},
	{"scenario.records_offered", "count"},
	{"scenario.records_delivered", "count"},
	{"scenario.drops_down", "count"},
	{"scenario.drops_queue", "count"},
	{"scenario.drops_loss", "count"},
	{"scenario.drops_cut", "count"},
	{"scenario.drops_fanout", "count"},
	{"trace.load_covered_ms", "ms"},
	{"trace.load_unattributed_ms", "ms"},
	{"trace.sink_covered_ms", "ms"},
	{"trace.sink_unattributed_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if why, ok := heldBack[*name]; ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s is held back from BENCHMARK.json: %s\n", *name, why)
	}
	res, err := measure(*name, run, runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure runs one workload. Untraced, it reports the end-to-end metrics;
// traced, it runs once without and once with spans, reports the
// per-layer metrics of the traced run and the throughput lost to tracing.
func measure(name string, run func(runConfig) (*outcome, error), cfg runConfig, traced bool) (*result, error) {
	plain, err := run(cfg)
	if err != nil {
		return nil, err
	}
	out := plain
	if traced {
		cfg.tr = newTracer()
		if out, err = run(cfg); err != nil {
			return nil, err
		}
		out.layers["trace.overhead_pct"] = 100 * (plain.e2e["ops_per_s"] - out.e2e["ops_per_s"]) / plain.e2e["ops_per_s"]
		out.errs = append(out.errs, plain.errs...)
		path, err := cfg.tr.write(name, cfg.seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n%s", path, cfg.tr.summary())
	}
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res := &result{
		Correct:   len(out.errs) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		res.Attempted += plain.attempted
		res.Failed += plain.failed
		for _, m := range layerUnits {
			res.Metrics[m.name] = metric{Value: out.layers[m.name], Unit: m.unit}
		}
		return res, nil
	}
	for _, m := range e2eUnits {
		v, ok := out.e2e[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", name, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}
