package main

import (
	"fmt"
	"net"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/gpa"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
)

// Query-federated shape: bounded shard history, the paced writer's rate,
// and the length of the seeded query mix.
const (
	queryMaxCorrelated = 512
	queryWriteRate     = 10_000 // records per second, across both shards
	historyQuery       = "jcorrelated"
)

// queryRig is two shard GPAs, filled from a capture, serving their TCP
// query endpoints behind a federation frontend.
type queryRig struct {
	cap       *captured
	parts     [][replayShards]*core.RecordColumns
	shards    []*gpa.GPA
	listeners []net.Listener
	fe        *gpa.Frontend
	clock     streamClock
	mix       []string
	written   int // batches the paced writer has ingested after the fill
}

func buildQuery(cfg runConfig) (*queryRig, error) {
	c, err := captureStream(cfg.seed, 4096, false)
	if err != nil {
		return nil, err
	}
	r := &queryRig{cap: c}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	for _, b := range c.batches {
		var p [replayShards]*core.RecordColumns
		for i := range p {
			p[i] = core.NewRecordColumns(b.Len())
		}
		for j := 0; j < b.Len(); j++ {
			p[b.Flows[j].ShardHash()%replayShards].AppendRowOf(b, j)
		}
		r.parts = append(r.parts, p)
	}
	var addrs []string
	for i := 0; i < replayShards; i++ {
		g := gpa.New(gpa.Config{MaxCorrelated: queryMaxCorrelated}, r.clock.now)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go g.Serve(l)
		r.shards = append(r.shards, g)
		r.listeners = append(r.listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	if r.fe, err = gpa.NewFrontend(addrs); err != nil {
		return nil, err
	}
	// Fill: one pass of the capture.
	scratch := core.NewRecordColumns(1024)
	for b := range c.batches {
		r.ingest(scratch, r.shards, b, 0)
	}
	r.mix = queryMix(cfg.seed, c)
	for _, q := range r.mix {
		if _, err := r.fe.Execute(q); err != nil {
			return nil, fmt.Errorf("warm-up query %q: %w", q, err)
		}
	}
	ok = true
	return r, nil
}

// ingest feeds batch b of pass pass to the analyzers: split by flow hash
// across two shards, or whole into one monolithic GPA.
func (r *queryRig) ingest(scratch *core.RecordColumns, into []*gpa.GPA, b, pass int) {
	src, off := r.cap.batches[b], r.cap.offset(pass)
	r.clock.advance(off + src.Ends[src.Len()-1])
	if len(into) == 1 {
		into[0].IngestColumns(shift(scratch, src, off))
		return
	}
	for i, g := range into {
		if p := r.parts[b][i]; p.Len() > 0 {
			g.IngestColumns(shift(scratch, p, off))
		}
	}
}

// queryMix draws the seeded mix: point queries (stats, nodes, one node's
// load, classes) and full correlated-history queries.
func queryMix(seed int64, c *captured) []string {
	nodes := map[simnet.NodeID]bool{}
	for _, b := range c.batches {
		for _, n := range b.Nodes {
			nodes[n] = true
		}
	}
	ids := make([]int, 0, len(nodes))
	for n := range nodes {
		ids = append(ids, int(n))
	}
	sort.Ints(ids)
	// Fixed counts per kind; the seed picks the load queries' nodes and
	// the order.
	rng := sim.NewRNG(seed).Fork("query-mix")
	var mix []string
	for _, k := range queryKinds {
		for i := 0; i < k.count; i++ {
			q := k.cmd
			if q == "jload" {
				q = fmt.Sprintf("jload %d", ids[rng.Intn(len(ids))])
			}
			mix = append(mix, q)
		}
	}
	shuffled := make([]string, len(mix))
	for i, j := range rng.Perm(len(mix)) {
		shuffled[i] = mix[j]
	}
	return shuffled
}

// queryKinds is the make-up of every 100-query mix.
var queryKinds = []struct {
	cmd   string
	count int
}{
	{"jstats", 20}, {"jnodes", 10}, {"jload", 25}, {"jclasses", 25}, {historyQuery, 20},
}

// writer ingests captured batches into the shards at queryWriteRate
// until stop closes. It runs beside the query client.
func (r *queryRig) writer(stop <-chan struct{}, ln *lane) {
	scratch := core.NewRecordColumns(1024)
	start := time.Now()
	var records int
	for {
		due := start.Add(time.Duration(float64(records) / queryWriteRate * float64(time.Second)))
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		b := r.written % len(r.cap.batches)
		pass := 1 + r.written/len(r.cap.batches)
		sp := ln.begin("gpa.IngestColumns")
		r.ingest(scratch, r.shards, b, pass)
		ln.end(sp)
		records += r.cap.batches[b].Len()
		r.written++
	}
}

// fullReply is how every complete (non-partial) frontend reply opens.
var fullReply = fmt.Sprintf(`{"federation":{"shards":%d,"partial":false},`, replayShards)

func (r *queryRig) close() {
	for _, l := range r.listeners {
		l.Close()
	}
}

func runQueryFederated(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	r, setup, err := setupMedian(setupRepeats, func() (*queryRig, error) { return buildQuery(cfg) }, (*queryRig).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	o.e2e["setup_s"] = setup

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.writer(stop, cfg.tr.lane("sink-writer"))
	}()
	ln := cfg.tr.lane("load")
	var all, point, history []float64
	m := startMeter(cfg.tr)
	// Whole rounds of the mix, so every run asks the same kinds of query
	// in the same proportions.
	deadline := time.Now().Add(cfg.seconds)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, q := range r.mix {
			sp := ln.begin("gpa.Frontend.Execute")
			t0 := time.Now()
			reply, err := r.fe.Execute(q)
			ms := durMS(time.Since(t0))
			ln.end(sp)
			o.attempted++
			if err != nil || !strings.HasPrefix(reply, fullReply) {
				o.failed++
				if o.failed == 1 {
					fmt.Fprintf(os.Stderr, "perfbench: query %q failed: %v %.120s\n", q, err, reply)
				}
				continue
			}
			all = append(all, ms)
			if q == historyQuery {
				history = append(history, ms)
			} else {
				point = append(point, ms)
			}
		}
		if m.lapDue() {
			m.lap(float64(len(all)), all)
		}
	}
	m.stop(float64(len(all)), all)
	close(stop)
	wg.Wait()
	m.fill(o)
	o.check(len(history) > 0 && len(point) > 0, "timed phase answered %d point and %d history queries", len(point), len(history))

	r.checkAgainstMonolith(o)

	if cfg.tr != nil {
		o.layers["query.point_p50_ms"] = quantile(point, 0.5)
		o.layers["query.point_p99_ms"] = quantile(point, 0.99)
		o.layers["query.history_ms"] = quantile(history, 0.5)
		fe := cfg.tr.byName("gpa.Frontend.Execute")
		o.layers["gpa.frontend_query_us"] = usPer(fe.total, fe.count)
		ingest := cfg.tr.byName("gpa.IngestColumns")
		var records float64
		for w := 0; w < r.written; w++ {
			records += float64(r.cap.batches[w%len(r.cap.batches)].Len())
		}
		if records > 0 {
			o.layers["gpa.ingest_ns_per_record"] = float64(ingest.total) / records
		}
		var gs gpa.Stats
		for _, g := range r.shards {
			st := g.StatsSnapshot()
			gs.Correlated += st.Correlated
			gs.Uncorrelated += st.Uncorrelated
			gs.StalePruned += st.StalePruned
		}
		o.layers["gpa.correlated"] = float64(gs.Correlated)
		o.layers["gpa.uncorrelated"] = float64(gs.Uncorrelated)
		o.layers["gpa.stale_pruned"] = float64(gs.StalePruned)
		if err := r.probeQueries(o); err != nil {
			return nil, err
		}
		cfg.tr.fillCoverage(o)
	}
	return o, nil
}

// probeQueries times one round of the mix on each shard's GPA.Execute
// and on the frontend: the frontend's merge share is its time minus the
// slowest shard's. History queries reach the shards as gzip'd columnar
// pages, whose size it records.
func (r *queryRig) probeQueries(o *outcome) error {
	var shardUS, feUS, mergeUS, pageBytes []float64
	for _, q := range r.mix {
		shardCmd := q
		if q == historyQuery {
			shardCmd = "jcorrelatedcolsz"
		}
		var slowest time.Duration
		var bytes int
		for _, g := range r.shards {
			t0 := time.Now()
			payload, err := g.Execute(shardCmd)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("shard query %q: %w", shardCmd, err)
			}
			shardUS = append(shardUS, float64(d)/1e3)
			slowest = max(slowest, d)
			bytes += len(payload)
		}
		t0 := time.Now()
		if _, err := r.fe.Execute(q); err != nil {
			return fmt.Errorf("frontend query %q: %w", q, err)
		}
		d := time.Since(t0)
		feUS = append(feUS, float64(d)/1e3)
		mergeUS = append(mergeUS, float64(d-slowest)/1e3)
		if q == historyQuery {
			pageBytes = append(pageBytes, float64(bytes))
		}
	}
	o.layers["gpa.shard_query_us"] = quantile(shardUS, 0.5)
	o.layers["gpa.merge_us"] = quantile(mergeUS, 0.5)
	o.layers["gpa.history_page_bytes"] = quantile(pageBytes, 0.5)
	return nil
}

// checkAgainstMonolith feeds one unsharded GPA the same records in the
// same order as the two shards got them, and compares the frontend's
// answers with its own at this quiesced point.
func (r *queryRig) checkAgainstMonolith(o *outcome) {
	feed := &queryRig{cap: r.cap}
	mono := gpa.New(gpa.Config{}, feed.clock.now)
	scratch := core.NewRecordColumns(1024)
	for w := 0; w < len(r.cap.batches)+r.written; w++ {
		feed.ingest(scratch, []*gpa.GPA{mono}, w%len(r.cap.batches), w/len(r.cap.batches))
	}
	o.check(feed.clock.now() == r.clock.now(), "monolith clock %v, shards %v", feed.clock.now(), r.clock.now())

	sum, st, err := r.fe.StatsSnapshot()
	ms := mono.StatsSnapshot()
	o.check(err == nil && !st.Partial, "frontend stats: %v partial=%v", err, st.Partial)
	o.check(sum.Ingested == ms.Ingested && sum.Correlated == ms.Correlated &&
		sum.Uncorrelated == ms.Uncorrelated && sum.StalePruned == ms.StalePruned &&
		sum.Pending == mono.PendingCount(),
		"frontend stats %+v pending=%d, monolith %+v pending=%d", sum.Stats, sum.Pending, ms, mono.PendingCount())

	nodes, _, err := r.fe.Nodes()
	o.check(err == nil && reflect.DeepEqual(nodes, mono.Nodes()), "frontend nodes %v (%v), monolith %v", nodes, err, mono.Nodes())
	for _, n := range mono.Nodes() {
		fl, _, err := r.fe.ServerLoad(n)
		ml := mono.ServerLoad(n)
		// Per-shard means are whole nanoseconds, so the merged mean may
		// differ from the monolith's by the truncation: at most 1 ns.
		o.check(err == nil && fl.Interactions == ml.Interactions &&
			within1ns(fl.MeanResidence, ml.MeanResidence) && within1ns(fl.MeanKernel, ml.MeanKernel) &&
			within1ns(fl.MeanBufferWait, ml.MeanBufferWait),
			"node %d load: frontend %+v (%v), monolith %+v", n, fl, err, ml)
	}
	classes, _, err := r.fe.ClassAggregatesAll()
	o.check(err == nil && reflect.DeepEqual(classes, mono.ClassAggregatesAll()), "frontend class aggregates differ from the monolith's (%v)", err)

	// History: the shards keep bounded history, the monolith all of it.
	// The merged history must be exactly the shards' retained pairs, each
	// one a pair the monolith made too.
	rows, st, err := r.fe.CorrelatedSeq()
	o.check(err == nil && !st.Partial, "frontend history: %v partial=%v", err, st.Partial)
	kept := 0
	for _, g := range r.shards {
		kept += len(g.Correlated())
	}
	made := map[gpa.EndToEnd]bool{}
	for _, e := range mono.Correlated() {
		made[e] = true
	}
	missing := 0
	for _, e := range rows {
		if !made[e.EndToEnd] {
			missing++
		}
	}
	o.check(len(rows) == kept && kept > 0, "frontend merged %d history rows, shards hold %d", len(rows), kept)
	o.check(missing == 0, "%d of %d merged history rows are pairs the monolith never made", missing, len(rows))
}

func within1ns(a, b time.Duration) bool { return a-b <= 1 && b-a <= 1 }
