package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/gpa"
	"sysprof/internal/kprof"
	"sysprof/internal/pubsub"
)

// liveRig is the fleet-live pipeline: a monitored fleet publishing into
// one broker, one plain-columnar TCP subscriber and one GPA.
type liveRig struct {
	fleet   *fleet
	broker  *pubsub.Broker
	sink    *sink
	g       *gpa.GPA
	clock   streamClock
	dl      *deliveries
	written atomic.Int64
	load    *lane // main goroutine's span log (traced run)
	qmax    int   // largest send-queue length seen after a publish (traced run)

	// Captured during warm-up of a traced run, for the offline probes.
	kprofRec *kprofRecording
	warm     []*core.RecordColumns
}

// Block with a timeout long enough that no frame is ever dropped.
const noDropTimeout = time.Minute

// historyCap bounds each GPA's correlated history, as gpad's
// -max-correlated does, small enough that its trim cycle barely moves the
// live heap.
const historyCap = 4096

func buildLive(cfg runConfig) (*liveRig, error) {
	reg, err := newRegistry()
	if err != nil {
		return nil, err
	}
	r := &liveRig{
		broker: pubsub.NewBroker(reg,
			pubsub.WithOverflowPolicy(pubsub.BlockWithDeadline),
			pubsub.WithBlockTimeout(noDropTimeout),
			pubsub.WithEvictAfterOverflows(0)),
		dl: newDeliveries(),
	}
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
	r.g = gpa.New(gpa.Config{MaxCorrelated: historyCap}, r.clock.now)
	// Unsharded, plain columnar: gpad -wire-compress=false.
	if r.sink, err = startSink(addr, pubsub.Dialer{Registry: reg}, r.g, r.dl, cfg.tr, "sink"); err != nil {
		return nil, err
	}
	if err := waitSubscribers(r.broker, 1); err != nil {
		return nil, err
	}
	r.fleet, err = newFleet(cfg.seed, liveShape, r.broker, r.wrapOnFull(cfg.tr != nil))
	if err != nil {
		return nil, err
	}

	// Warm up until records flow end to end. A traced run also records
	// the kprof stream and the first batches for the offline probes.
	var warm *pubsub.LocalSub
	if cfg.tr != nil {
		hubs := make([]*kprof.Hub, len(r.fleet.nodes))
		for i, n := range r.fleet.nodes {
			hubs[i] = n.Hub()
		}
		r.kprofRec = recordKprof(hubs, 200_000)
		warm = r.broker.Subscribe(dissem.ChannelInteractions, func(rec any) {
			cols := rec.(*core.RecordColumns)
			cp := core.NewRecordColumns(cols.Len())
			cp.AppendColumns(cols)
			r.warm = append(r.warm, cp)
		})
	}
	for r.sink.batches.Load() < 32 {
		if err := r.step(); err != nil {
			return nil, err
		}
	}
	if warm != nil {
		warm.Close()
		r.kprofRec.close()
	}
	ok = true
	return r, nil
}

// wrapOnFull wires each daemon's OnFull into its LPA behind a hook that
// notes the publish time of every batch (and, traced, a span and the
// send-queue length).
func (r *liveRig) wrapOnFull(traced bool) onFullWrap {
	return func(d *dissem.Daemon) func(int, *core.RecordColumns, func()) {
		return func(cpu int, batch *core.RecordColumns, release func()) {
			if batch.Len() > 0 {
				r.dl.sent(time.Now(), 0, firstKey(batch))
			}
			sp := r.load.begin("dissem.OnFull")
			d.OnFull(cpu, batch, release)
			r.load.end(sp)
			if traced {
				for _, s := range r.broker.Subscribers() {
					r.qmax = max(r.qmax, s.QueueLen)
				}
			}
		}
	}
}

// step advances the fleet by a slice of virtual time.
func (r *liveRig) step() error {
	sp := r.load.begin("sim.RunFor")
	err := r.fleet.eng.RunFor(2 * time.Millisecond)
	r.load.end(sp)
	r.clock.advance(r.fleet.eng.Now())
	return err
}

func (r *liveRig) close() {
	if r.sink != nil {
		_ = r.sink.stop()
	}
	r.broker.Close()
}

func runFleetLive(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	r, setup, err := setupMedian(setupRepeats, func() (*liveRig, error) { return buildLive(cfg) }, (*liveRig).close)
	if err != nil {
		return nil, err
	}
	defer r.close()
	o.e2e["setup_s"] = setup

	r.load = cfg.tr.lane("load")
	events0, recs0, bytes0 := r.fleet.events(), r.sink.ingested.Load(), r.written.Load()
	blocked0 := blockedNanos(r.broker)
	r.dl.timing.Store(true)
	m := startMeter(cfg.tr)
	// Run to the deadline, and on a slow machine at least until a few
	// batches have made it through.
	deadline := time.Now().Add(cfg.seconds)
	batches0 := r.sink.batches.Load()
	for time.Now().Before(deadline) || r.sink.batches.Load() < batches0+8 {
		if err := r.step(); err != nil {
			return nil, err
		}
		if m.lapDue() {
			m.lap(float64(r.sink.ingested.Load()-recs0), r.dl.latencies())
		}
	}
	records := float64(r.sink.ingested.Load() - recs0)
	m.stop(records, r.dl.latencies())
	r.dl.timing.Store(false)
	r.load = nil
	events := float64(r.fleet.events() - events0)
	wire := float64(r.written.Load() - bytes0)
	blocked := blockedNanos(r.broker) - blocked0
	m.fill(o)

	// Quiesce: every exchange completes, every record is published and
	// ingested, then the books must close exactly.
	if err := r.fleet.quiesce(); err != nil {
		return nil, err
	}
	st := r.fleet.monitorStats()
	if err := waitIngested(st.published, r.sink); err != nil {
		return nil, err
	}
	bs := r.broker.Stats()
	o.attempted = int64(st.interactions)
	o.failed = int64(st.bufDrops + st.pubDrops + bs.RemoteDropped)
	gs := r.g.StatsSnapshot()
	ex := r.fleet.exchanges
	o.check(st.interactions == 2*ex, "LPAs closed %d interactions for %d client-counted exchanges, want 2 per exchange", st.interactions, ex)
	o.check(st.published == st.interactions, "published %d of %d records", st.published, st.interactions)
	o.check(gs.Ingested == st.published, "GPA ingested %d of %d published records", gs.Ingested, st.published)
	o.check(gs.Correlated == ex, "GPA correlated %d pairs for %d exchanges", gs.Correlated, ex)
	o.check(gs.Uncorrelated == 0, "GPA evicted %d uncorrelated records", gs.Uncorrelated)
	checkPairs(o, r.g.Correlated(), r.fleet)

	if cfg.tr != nil {
		run := cfg.tr.byName("sim.RunFor")
		onFull := cfg.tr.byName("dissem.OnFull")
		o.layers["sim.ns_per_event"] = float64(run.total-onFull.total) / events
		o.layers["sim.events_per_s"] = events / m.elapsed.Seconds()
		o.layers["dissem.onfull_us_per_batch"] = usPer(onFull.total, onFull.count)
		st.fill(o)
		o.layers["pubsub.wire_bytes_per_record"] = wire / records
		o.layers["pubsub.blocked_ms"] = durMS(time.Duration(blocked))
		o.layers["pubsub.queue_len_max"] = float64(r.qmax)
		fillSinkLayers(o, cfg.tr, m, records, gs)
		probeKprof(r.kprofRec, o)
		c, err := newCodec()
		if err != nil {
			return nil, err
		}
		if err := probeCodec(c, r.warm, o); err != nil {
			return nil, err
		}
		cfg.tr.fillCoverage(o)
	}
	return o, nil
}

// checkPairs holds every correlated interaction still in the GPA's
// history to what the simulation guarantees: the server observes a
// sub-interval of what its client observes, and its user time covers the
// handler's compute.
func checkPairs(o *outcome, pairs []gpa.EndToEnd, f *fleet) {
	bad := 0
	var first string
	for _, e := range pairs {
		compute, known := f.compute[e.Server.Node]
		switch {
		case !known:
			first = fmt.Sprintf("server record from unknown node %d", e.Server.Node)
		case e.Server.Residence() > e.Client.Residence():
			first = fmt.Sprintf("server %v..%v exceeds client %v..%v on %v",
				e.Server.Start, e.Server.End, e.Client.Start, e.Client.End, e.Flow)
		case e.Server.UserTime < compute:
			first = fmt.Sprintf("server user time %v below handler compute %v on %v", e.Server.UserTime, compute, e.Flow)
		default:
			continue
		}
		bad++
	}
	o.check(len(pairs) > 0, "GPA kept no correlated interactions")
	o.check(bad == 0, "%d of %d correlated pairs break the residence/user-time bounds; first: %s", bad, len(pairs), first)
}

// fillSinkLayers writes the subscriber-side per-layer metrics.
func fillSinkLayers(o *outcome, tr *tracer, m *meter, records float64, gs gpa.Stats) {
	recv := tr.byName("pubsub.Recv")
	ingest := tr.byName("gpa.IngestColumns")
	o.layers["pubsub.recv_us_per_batch"] = usPer(recv.total, recv.count)
	o.layers["pubsub.read_syscalls_per_record"] = float64(m.readCalls) / records
	o.layers["gpa.ingest_ns_per_record"] = float64(ingest.total) / records
	o.layers["gpa.correlated"] = float64(gs.Correlated)
	o.layers["gpa.uncorrelated"] = float64(gs.Uncorrelated)
	o.layers["gpa.stale_pruned"] = float64(gs.StalePruned)
}

func usPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / 1e3 / float64(n)
}

func blockedNanos(b *pubsub.Broker) uint64 {
	var n uint64
	for _, s := range b.Subscribers() {
		n += s.BlockedNanos
	}
	return n
}
