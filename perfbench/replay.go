package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/gpa"
	"sysprof/internal/pubsub"
)

// replayShards is the flow-hash shard count of gpa-replay and
// query-federated, as gpad -shard i/2 runs it.
const replayShards = 2

// captured is a recorded stream of columnar batches from a quiesced
// fleet: every exchange appears twice, as its client and server record.
type captured struct {
	batches   []*core.RecordColumns
	exchanges uint64
	records   uint64
	span      time.Duration // pass length: the newest record end plus a gap
	probe     *captureProbe // the capture fleet's layers (traced run only)
	// parts[b][i] keys shard i's part of batch b (ok=false: no rows).
	parts [][replayShards]partKey
}

type partKey struct {
	key batchKey
	ok  bool
}

// captureStream captures a fleet's batches for replay; traced, it also
// probes the fleet's node-side layers.
func captureStream(seed int64, exchanges uint64, traced bool) (*captured, error) {
	var probe *captureProbe
	if traced {
		probe = &captureProbe{}
	}
	batches, ex, err := capture(seed, captureShape, exchanges, probe)
	if err != nil {
		return nil, err
	}
	c := &captured{batches: batches, exchanges: ex, probe: probe}
	var newest time.Duration
	for _, b := range batches {
		c.records += uint64(b.Len())
		var pk [replayShards]partKey
		for j := 0; j < b.Len(); j++ {
			newest = max(newest, b.Ends[j])
			sh := b.Flows[j].ShardHash() % replayShards
			if !pk[sh].ok {
				pk[sh] = partKey{key: batchKey{node: b.Nodes[j], id: b.IDs[j]}, ok: true}
			}
		}
		c.parts = append(c.parts, pk)
	}
	c.span = newest + time.Second
	return c, nil
}

// offset is how far pass pass moves every timestamp, so consecutive
// passes over the capture form one continuous stream.
func (c *captured) offset(pass int) time.Duration { return time.Duration(pass) * c.span }

// shift copies src into dst with every timestamp moved by off.
func shift(dst, src *core.RecordColumns, off time.Duration) *core.RecordColumns {
	dst.Reset()
	dst.AppendColumns(src)
	for j := range dst.Starts {
		dst.Starts[j] += off
		dst.Ends[j] += off
	}
	return dst
}

// replayRig is the gpa-replay pipeline: the broker publishing captured
// batches to two flow-hash shard subscribers on compressed links, each
// feeding its own GPA.
type replayRig struct {
	cap     *captured
	broker  *pubsub.Broker
	sinks   []*sink
	gpas    []*gpa.GPA
	clock   streamClock
	dl      *deliveries
	written atomic.Int64
	scratch *core.RecordColumns
	pass    int
	load    *lane
	qmax    int
}

// replayWindow is how many batches may be in flight: the replay is a
// closed loop over this window.
const replayWindow = 8

func buildReplay(cfg runConfig) (*replayRig, error) {
	c, err := captureStream(cfg.seed, 8192, cfg.tr != nil)
	if err != nil {
		return nil, err
	}
	reg, err := newRegistry()
	if err != nil {
		return nil, err
	}
	r := &replayRig{
		cap: c,
		broker: pubsub.NewBroker(reg,
			pubsub.WithOverflowPolicy(pubsub.BlockWithDeadline),
			pubsub.WithBlockTimeout(noDropTimeout),
			pubsub.WithEvictAfterOverflows(0)),
		dl:      newDeliveries(),
		scratch: core.NewRecordColumns(1024),
	}
	// One slot per batch in flight, so a sink never blocks reporting one.
	r.dl.done = make(chan int, replayWindow)
	r.broker.SetShardKeyFunc(dissem.ShardKey)
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()
	addr, err := serveBroker(r.broker, &r.written)
	if err != nil {
		return nil, err
	}
	for i := 0; i < replayShards; i++ {
		g := gpa.New(gpa.Config{MaxCorrelated: historyCap}, r.clock.now)
		// gpad -shard i/2 with its default -wire-compress=true.
		s, err := startSink(addr, pubsub.Dialer{Registry: reg, Shard: i, Of: replayShards, Compress: true},
			g, r.dl, cfg.tr, fmt.Sprintf("sink%d", i))
		if err != nil {
			return nil, err
		}
		r.gpas = append(r.gpas, g)
		r.sinks = append(r.sinks, s)
	}
	if err := waitSubscribers(r.broker, replayShards); err != nil {
		return nil, err
	}
	// Warm-up: one whole pass.
	if err := r.replayPass(); err != nil {
		return nil, err
	}
	ok = true
	return r, nil
}

// replayPass publishes every captured batch once, keeping at most
// replayWindow batches in flight, and returns when the whole pass has
// been ingested.
func (r *replayRig) replayPass() error {
	inflight := 0
	for b := range r.cap.batches {
		if inflight == replayWindow {
			<-r.dl.done
			inflight--
		}
		cols := shift(r.scratch, r.cap.batches[b], r.cap.offset(r.pass))
		var keys []batchKey
		for _, pk := range r.cap.parts[b] {
			if pk.ok {
				keys = append(keys, pk.key)
			}
		}
		r.clock.advance(cols.Ends[cols.Len()-1])
		r.dl.sent(time.Now(), b, keys...)
		sp := r.load.begin("pubsub.PublishColumns")
		err := r.broker.PublishColumns(dissem.ChannelInteractions, cols)
		r.load.end(sp)
		if err != nil {
			return err
		}
		inflight++
		if r.load != nil {
			for _, s := range r.broker.Subscribers() {
				r.qmax = max(r.qmax, s.QueueLen)
			}
		}
	}
	for ; inflight > 0; inflight-- {
		<-r.dl.done
	}
	r.pass++
	return nil
}

func (r *replayRig) correlated() (pairs, uncorrelated uint64) {
	for _, g := range r.gpas {
		st := g.StatsSnapshot()
		pairs += st.Correlated
		uncorrelated += st.Uncorrelated
	}
	return pairs, uncorrelated
}

func (r *replayRig) ingested() uint64 {
	var n uint64
	for _, s := range r.sinks {
		n += s.ingested.Load()
	}
	return n
}

func (r *replayRig) close() {
	for _, s := range r.sinks {
		_ = s.stop()
	}
	r.broker.Close()
}

func runGPAReplay(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	r, setup, err := setupMedian(setupRepeats, func() (*replayRig, error) { return buildReplay(cfg) }, (*replayRig).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	o.e2e["setup_s"] = setup

	r.load = cfg.tr.lane("load")
	recs0, bytes0, blocked0 := r.ingested(), r.written.Load(), blockedNanos(r.broker)
	r.dl.timing.Store(true)
	m := startMeter(cfg.tr)
	deadline := time.Now().Add(cfg.seconds)
	passes := 0
	for time.Now().Before(deadline) {
		pairs0, _ := r.correlated()
		if err := r.replayPass(); err != nil {
			return nil, err
		}
		passes++
		pairs, unc := r.correlated()
		o.check(pairs-pairs0 == r.cap.exchanges, "pass %d correlated %d pairs, the capture holds %d exchanges", r.pass, pairs-pairs0, r.cap.exchanges)
		o.check(unc == 0, "pass %d: %d records evicted uncorrelated", r.pass, unc)
		if m.lapDue() {
			m.lap(float64(r.ingested()-recs0), r.dl.latencies())
		}
	}
	records := float64(r.ingested() - recs0)
	m.stop(records, r.dl.latencies())
	r.dl.timing.Store(false)
	r.load = nil
	m.fill(o)

	bs := r.broker.Stats()
	o.attempted = int64(uint64(r.pass) * r.cap.records)
	o.failed = int64(bs.RemoteDropped)
	o.check(float64(passes)*float64(r.cap.records) == records, "timed phase ingested %.0f records over %d passes of %d", records, passes, r.cap.records)

	// Outside the timed phase: the wire codec is lossless on this input.
	c, err := newCodec()
	if err != nil {
		return nil, err
	}
	if err := c.roundTrip(r.cap.batches); err != nil {
		o.check(false, "decode∘encode: %v", err)
	}

	if cfg.tr != nil {
		pub := cfg.tr.byName("pubsub.PublishColumns")
		o.layers["pubsub.publish_us_per_batch"] = usPer(pub.total, pub.count)
		o.layers["pubsub.wire_bytes_per_record"] = float64(r.written.Load()-bytes0) / records
		o.layers["pubsub.blocked_ms"] = durMS(time.Duration(blockedNanos(r.broker) - blocked0))
		o.layers["pubsub.queue_len_max"] = float64(r.qmax)
		var gs gpa.Stats
		for _, g := range r.gpas {
			st := g.StatsSnapshot()
			gs.Correlated += st.Correlated
			gs.Uncorrelated += st.Uncorrelated
			gs.StalePruned += st.StalePruned
		}
		fillSinkLayers(o, cfg.tr, m, records, gs)
		r.cap.probe.fill(o)
		if err := probeCodec(c, r.cap.batches, o); err != nil {
			return nil, err
		}
		cfg.tr.fillCoverage(o)
	}
	return o, nil
}
