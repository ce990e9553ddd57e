package main

import (
	"bytes"
	"fmt"
	"time"

	"sysprof/internal/scenario"
)

// chaosSeeds is the fixed seed list chaos-fleet runs in whole rounds; the
// workload seed only rotates the order.
var chaosSeeds = []int64{42, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// chaosRun runs the builtin chaos-1k scenario with one seed and returns
// its report and canonical JSON.
func chaosRun(seed int64) (*scenario.Report, []byte, error) {
	spec, ok := scenario.Builtins()["chaos-1k"]
	if !ok {
		return nil, nil, fmt.Errorf("no builtin chaos-1k scenario")
	}
	spec.Seed = seed
	rep, err := scenario.Run(spec)
	if err != nil {
		return nil, nil, err
	}
	js, err := rep.EncodeJSON()
	return rep, js, err
}

func runChaosFleet(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	guard := scenario.Builtins()["chaos-1k"].Guard
	// Set-up: a warm-up run of seed 42, whose report every timed run of
	// seed 42 must reproduce byte for byte.
	ref, setup, err := setupMedian(setupRepeats, func() ([]byte, error) {
		_, js, err := chaosRun(42)
		return js, err
	}, func([]byte) {})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup

	order := make([]int64, len(chaosSeeds))
	for i := range order {
		order[i] = chaosSeeds[(i+int(cfg.seed%int64(len(chaosSeeds)))+len(chaosSeeds))%len(chaosSeeds)]
	}
	first := map[int64][]byte{42: ref}
	ln := cfg.tr.lane("load")
	var runMS []float64
	var delivered, events, offered, fanoutDrops, pairs float64
	var netDown, netQueue, netLoss, netCut, interactions, bufDrops float64
	m := startMeter(cfg.tr)
	deadline := time.Now().Add(cfg.seconds)
	for time.Now().Before(deadline) {
		for _, seed := range order {
			sp := ln.begin("scenario.Run")
			t0 := time.Now()
			rep, js, err := chaosRun(seed)
			runMS = append(runMS, durMS(time.Since(t0)))
			ln.end(sp)
			if err != nil {
				return nil, err
			}
			o.attempted += int64(rep.Monitor.Interactions)
			o.failed += abs64(rep.UnaccountedRecords)
			if err := rep.Check(guard); err != nil {
				o.check(false, "seed %d: %v", seed, err)
			}
			if prev, ok := first[seed]; ok {
				o.check(bytes.Equal(prev, js), "seed %d: two runs gave different reports", seed)
			} else {
				first[seed] = js
			}
			var correlated uint64
			for _, s := range rep.Shards {
				correlated += s.Correlated
			}
			o.check(correlated <= rep.Workload.Completed, "seed %d: %d correlated pairs for %d completed requests", seed, correlated, rep.Workload.Completed)
			f := rep.Fanout
			delivered += float64(f.Delivered)
			offered += float64(f.Offered)
			fanoutDrops += float64(f.DroppedOverflow + f.DroppedDetached + f.DroppedEvicted + f.DroppedDead)
			events += float64(rep.Monitor.EventsEmitted)
			interactions += float64(rep.Monitor.Interactions)
			bufDrops += float64(rep.Monitor.BufferDrops)
			pairs += float64(correlated)
			netDown += float64(rep.Net.DroppedDown)
			netQueue += float64(rep.Net.DroppedQueue)
			netLoss += float64(rep.Net.DroppedLoss)
			netCut += float64(rep.Net.DroppedCut)
		}
		m.lap(delivered, runMS)
	}
	m.stop(delivered, runMS)
	m.fill(o)

	if cfg.tr != nil {
		run := cfg.tr.byName("scenario.Run")
		o.layers["sim.ns_per_event"] = float64(run.total) / events
		o.layers["sim.events_per_s"] = events / m.elapsed.Seconds()
		o.layers["core.interactions"] = interactions
		o.layers["core.buffer_drops"] = bufDrops
		o.layers["gpa.correlated"] = pairs
		o.layers["scenario.records_offered"] = offered
		o.layers["scenario.records_delivered"] = delivered
		o.layers["scenario.drops_down"] = netDown
		o.layers["scenario.drops_queue"] = netQueue
		o.layers["scenario.drops_loss"] = netLoss
		o.layers["scenario.drops_cut"] = netCut
		o.layers["scenario.drops_fanout"] = fanoutDrops
		cfg.tr.fillCoverage(o)
	}
	return o, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
