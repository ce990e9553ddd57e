package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/gpa"
	"sysprof/internal/pbio"
	"sysprof/internal/pubsub"
	"sysprof/internal/simnet"
)

func newRegistry() (*pbio.Registry, error) {
	reg := pbio.NewRegistry()
	if err := dissem.RegisterFormats(reg); err != nil {
		return nil, err
	}
	return reg, nil
}

// countingListener counts every byte the broker writes to the sockets it
// accepts.
type countingListener struct {
	net.Listener
	written *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, written: l.written}, nil
}

type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// serveBroker starts broker on a loopback listener that counts written
// bytes, and returns the address subscribers dial.
func serveBroker(broker *pubsub.Broker, written *atomic.Int64) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() { _ = broker.Serve(countingListener{Listener: l, written: written}) }()
	return l.Addr().String(), nil
}

// waitSubscribers waits until the broker has registered n subscribers,
// so the first publish reaches all of them.
func waitSubscribers(broker *pubsub.Broker, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for len(broker.Subscribers()) < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("broker registered %d of %d subscribers", len(broker.Subscribers()), n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// batchKey identifies a published batch, or one shard's part of it, by
// its first record: records IDs are unique per node.
type batchKey struct {
	node simnet.NodeID
	id   uint64
}

func firstKey(cols *core.RecordColumns) batchKey {
	return batchKey{node: cols.Nodes[0], id: cols.IDs[0]}
}

// pending is one published batch still travelling.
type pending struct {
	sent  time.Time
	parts int // parts not yet ingested
	batch int // caller's batch index, returned on completion
}

// deliveries matches ingested batches to their publish calls and keeps
// the publish → IngestColumns-return times of the timed phase.
type deliveries struct {
	mu      sync.Mutex
	open    map[batchKey]*pending
	samples []float64 // ms, batches sent while timing was on
	timing  atomic.Bool
	// done, when set, receives the batch index of every fully ingested
	// batch (the closed-loop replay's in-flight window).
	done chan int
}

func newDeliveries() *deliveries {
	return &deliveries{open: map[batchKey]*pending{}}
}

// sent registers a batch published at t whose parts start with keys.
func (d *deliveries) sent(t time.Time, batch int, keys ...batchKey) {
	p := &pending{sent: t, parts: len(keys), batch: batch}
	d.mu.Lock()
	for _, k := range keys {
		d.open[k] = p
	}
	d.mu.Unlock()
}

// ingested records that the part starting with k has been ingested at t.
func (d *deliveries) ingested(k batchKey, t time.Time) {
	d.mu.Lock()
	p := d.open[k]
	if p == nil {
		d.mu.Unlock()
		return
	}
	delete(d.open, k)
	p.parts--
	finished := p.parts == 0
	if finished && d.timing.Load() {
		d.samples = append(d.samples, durMS(t.Sub(p.sent)))
	}
	d.mu.Unlock()
	if finished && d.done != nil {
		d.done <- p.batch
	}
}

// latencies copies the timed samples so far.
func (d *deliveries) latencies() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.samples...)
}

// sink is one remote subscriber feeding one GPA, as gpad composes them:
// Recv → IngestColumns on its own goroutine.
type sink struct {
	sub      *pubsub.Subscriber
	g        *gpa.GPA
	ingested atomic.Uint64
	batches  atomic.Uint64
	err      error
	closing  atomic.Bool
	done     chan struct{}
}

// startSink dials the broker with d's options and starts the receive
// loop. ln records Recv and IngestColumns spans (nil = untraced).
func startSink(addr string, d pubsub.Dialer, g *gpa.GPA, dl *deliveries, tr *tracer, lane string) (*sink, error) {
	sub, err := d.Dial(addr, dissem.ChannelInteractions)
	if err != nil {
		return nil, err
	}
	s := &sink{sub: sub, g: g, done: make(chan struct{})}
	go s.loop(dl, tr, lane)
	return s, nil
}

func (s *sink) loop(dl *deliveries, tr *tracer, lane string) {
	defer close(s.done)
	ln := tr.lane(lane)
	for {
		sp := ln.begin("pubsub.Recv")
		_, rec, err := s.sub.Recv()
		ln.end(sp)
		if err != nil {
			if !s.closing.Load() && !errors.Is(err, io.EOF) {
				s.err = err
			}
			return
		}
		cols, ok := rec.Value.(*core.RecordColumns)
		if !ok {
			s.err = fmt.Errorf("subscriber received %T, want columnar batches", rec.Value)
			return
		}
		sp = ln.begin("gpa.IngestColumns")
		s.g.IngestColumns(cols)
		ln.end(sp)
		now := time.Now()
		s.batches.Add(1)
		s.ingested.Add(uint64(cols.Len()))
		dl.ingested(firstKey(cols), now)
	}
}

// stop closes the subscription and waits for the receive loop to end.
func (s *sink) stop() error {
	s.closing.Store(true)
	_ = s.sub.Close()
	<-s.done
	return s.err
}

// waitIngested waits until the sinks together have ingested want
// records.
func waitIngested(want uint64, sinks ...*sink) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var got uint64
		for _, s := range sinks {
			got += s.ingested.Load()
		}
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("subscribers ingested %d of %d published records", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// streamClock is the analyzers' clock: the newest record time the
// workload has fed the pipeline, so the GPA's windows follow the record
// stream rather than the wall clock.
type streamClock struct{ ns atomic.Int64 }

func (c *streamClock) now() time.Duration { return time.Duration(c.ns.Load()) }

// advance moves the clock forward to t; it never goes back. Only the
// goroutine feeding the pipeline calls it.
func (c *streamClock) advance(t time.Duration) {
	if int64(t) > c.ns.Load() {
		c.ns.Store(int64(t))
	}
}
