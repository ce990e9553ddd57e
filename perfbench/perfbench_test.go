package main

import (
	"os"
	"testing"
	"time"
)

// TestWorkloadsShort runs every workload briefly, untraced, and requires
// its correctness checks to pass with no failed operation and every
// end-to-end metric measured. A held-back workload must run to its end
// with no failed operation; its checks are logged, not required, since
// the fault it is held back for makes them fail.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := measure(name, workloads[name], runConfig{seed: 7, seconds: 200 * time.Millisecond}, false)
			if err != nil {
				t.Fatal(err)
			}
			if why, held := heldBack[name]; held {
				t.Logf("held back (%s): correct=%v", why, res.Correct)
				res.Correct = true
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range e2eUnits {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("%s = %+v (present=%v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
		})
	}
}

// TestTracedRun checks that a traced run reports every per-layer metric
// and writes its spans, that the capture fleet's node-side layers are
// measured, and that the subscriber decode path shows up in the
// read-syscall count.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload twice")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	res, err := measure("gpa-replay", runGPAReplay, runConfig{seed: 3, seconds: 200 * time.Millisecond}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("traced gpa-replay failed its checks")
	}
	for _, m := range layerUnits {
		if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
			t.Errorf("%s missing or in the wrong unit: %+v", m.name, got)
		}
	}
	for _, name := range []string{"pubsub.publish_us_per_batch", "pubsub.recv_us_per_batch", "gpa.ingest_ns_per_record",
		"pbio.decode_ns_per_record", "trace.load_covered_ms", "trace.sink_covered_ms", "pubsub.read_syscalls_per_record",
		"sim.ns_per_event", "kprof.emit_ns_per_event", "core.interactions", "dissem.onfull_us_per_batch"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0 on gpa-replay", name, res.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(".bench_build/perfbench-trace/gpa-replay-seed3.jsonl"); err != nil {
		t.Errorf("span file: %v", err)
	}
}
