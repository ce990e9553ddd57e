package main

import (
	"fmt"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/dissem"
	"sysprof/internal/kprof"
	"sysprof/internal/pubsub"
	"sysprof/internal/sim"
	"sysprof/internal/simnet"
	"sysprof/internal/simos"
)

// fleetShape is the make-up of a simulated, fully monitored fleet.
type fleetShape struct {
	servers    int // servers: workers recv → compute → reply on port 80
	serverCPUs int // CPUs (and LPA per-CPU buffers) per server
	clients    int // 1-CPU client nodes
	lanes      int // closed-loop client processes per client node
	// ports > 0 makes every exchange open a fresh connection: each lane
	// cycles through this many client ports, so each exchange is its own
	// short flow. 0 keeps one long-lived connection per lane.
	ports int
}

// Shapes of the workloads' fleets (see README.md).
var (
	liveShape    = fleetShape{servers: 4, serverCPUs: 2, clients: 8, lanes: 2}
	captureShape = fleetShape{servers: 4, serverCPUs: 2, clients: 8, lanes: 4, ports: 256}
)

// serverKind and clientKind are the server and client templates of the
// builtin scenarios (internal/scenario Builtins): chaos-1k's app-server
// (8 workers, 1 ms) and slow-server (4 workers, 4 ms), the small
// scenarios' app-server (4 workers, 2 ms); the default client (512 B
// requests, 1 KiB replies) and chaos-1k's bulk-client (4 KiB, 8 KiB).
type serverKind struct {
	workers int
	compute time.Duration
}

type clientKind struct{ req, resp int }

// The lists the seed deals out to servers and to client lanes. A list's
// length divides the servers or lanes of every shape, so each entry goes
// to the same number of them; repeated entries weight a template as
// chaos-1k does (app-server 2 : slow-server 1).
var (
	serverKinds = []serverKind{{8, time.Millisecond}, {8, time.Millisecond}, {4, 2 * time.Millisecond}, {4, 4 * time.Millisecond}}
	clientKinds = []clientKind{{512, 1024}, {512, 1024}, {512, 1024}, {4096, 8192}}
)

// fleet is a seeded simulated fleet with SysProf attached to every node:
// kprof hub → LPA (per-CPU double buffers) → dissemination daemon → one
// shared broker. Everything here runs on the goroutine that drives eng.
type fleet struct {
	eng     *sim.Engine
	nodes   []*simos.Node
	lpas    []*core.LPA
	daemons []*dissem.Daemon
	// compute is each server node's handler compute time per request.
	compute map[simnet.NodeID]time.Duration

	exchanges uint64 // completed request/reply exchanges, counted by the clients
	stopping  bool   // clients issue no new request once set
}

// onFullWrap lets a workload wrap a daemon's OnFull before it is wired
// into the node's LPA (nil = the daemon's OnFull as is).
type onFullWrap func(d *dissem.Daemon) func(cpu int, batch *core.RecordColumns, release func())

// newFleet builds the fleet from seed and starts its workload and
// monitoring. Nothing has run yet: the caller drives eng.
func newFleet(seed int64, shape fleetShape, broker *pubsub.Broker, wrap onFullWrap) (*fleet, error) {
	// The seed deals the kinds out to servers and lanes, so every seed
	// gives a different fleet with the same total make-up.
	rng := sim.NewRNG(seed)
	f := &fleet{eng: sim.NewEngine(), compute: map[simnet.NodeID]time.Duration{}}
	network := simnet.NewNetwork(f.eng)

	servers := make([]*simos.Node, shape.servers)
	kindOf := rng.Perm(shape.servers)
	for i := range servers {
		n, err := simos.NewNode(f.eng, network, fmt.Sprintf("server-%d", i), simos.Config{NumCPUs: shape.serverCPUs})
		if err != nil {
			return nil, err
		}
		servers[i] = n
		f.nodes = append(f.nodes, n)
		f.startServer(n, serverKinds[kindOf[i]%len(serverKinds)])
	}
	lanes := shape.clients * shape.lanes
	serverOf, clientOf := rng.Perm(lanes), rng.Perm(lanes)
	for c := 0; c < shape.clients; c++ {
		n, err := simos.NewNode(f.eng, network, fmt.Sprintf("client-%d", c), simos.Config{NumCPUs: 1})
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		for l := 0; l < shape.lanes; l++ {
			i := c*shape.lanes + l
			srv := servers[serverOf[i]%len(servers)]
			if network.Link(n.ID(), srv.ID()) == nil {
				if err := network.Connect(n.ID(), srv.ID()); err != nil {
					return nil, err
				}
			}
			f.startLane(n, l, shape.ports, simnet.Addr{Node: srv.ID(), Port: 80}, clientKinds[clientOf[i]%len(clientKinds)])
		}
	}

	const flushEvery = 500 * time.Millisecond
	for i, n := range f.nodes {
		d := dissem.New(f.eng, broker, nil, dissem.Config{
			NodeName:      n.Name(),
			Node:          n.ID(),
			FlushInterval: flushEvery,
			MaxWindowAge:  time.Second,
			FlowExpiry:    2 * time.Second,
		})
		onFull := d.OnFull
		if wrap != nil {
			onFull = wrap(d)
		}
		lpa := core.NewLPA(n.Hub(), core.Config{NumCPUs: n.Config().NumCPUs, OnFull: onFull})
		d.Serve(lpa)
		// Stagger the nodes' flush timers, as independently booted nodes
		// would be, so their partial-buffer flushes do not all reach the
		// subscriber in the same instant.
		f.eng.After(flushEvery*time.Duration(i)/time.Duration(len(f.nodes)), d.Start)
		f.lpas = append(f.lpas, lpa)
		f.daemons = append(f.daemons, d)
	}
	return f, nil
}

func (f *fleet) startServer(n *simos.Node, kind serverKind) {
	f.compute[n.ID()] = kind.compute
	listen := n.MustBind(80)
	for w := 0; w < kind.workers; w++ {
		n.Spawn(fmt.Sprintf("worker-%d", w), func(p *simos.Process) {
			var loop func()
			loop = func() {
				p.Recv(listen, func(m *simos.Message) {
					// The request carries its client's kind: reply with its size.
					resp := m.Payload.(*clientKind).resp
					p.Compute(kind.compute, func() { p.Reply(listen, m, resp, nil, loop) })
				})
			}
			loop()
		})
	}
}

// startLane spawns one closed-loop client process: send, wait for the
// reply, send again.
func (f *fleet) startLane(n *simos.Node, lane, ports int, dst simnet.Addr, kind clientKind) {
	socks := []*simos.Socket{n.MustBind(uint16(10000 + lane))}
	if ports > 0 {
		socks = socks[:0]
		for k := 0; k < ports; k++ {
			socks = append(socks, n.MustBind(uint16(20000+lane*ports+k)))
		}
	}
	n.Spawn(fmt.Sprintf("lane-%d", lane), func(p *simos.Process) {
		next := 0
		var loop func()
		loop = func() {
			if f.stopping {
				return
			}
			sock := socks[next]
			next = (next + 1) % len(socks)
			p.Send(sock, dst, kind.req, &kind, func() {
				p.Recv(sock, func(*simos.Message) {
					f.exchanges++
					loop()
				})
			})
		}
		loop()
	})
}

// events is the number of kprof events the fleet's hubs have emitted.
func (f *fleet) events() uint64 {
	var n uint64
	for _, node := range f.nodes {
		n += node.Hub().StatsSnapshot().Emitted
	}
	return n
}

// quiesce stops new requests, lets every exchange in flight finish, and
// stops the daemons, which flush every open interaction, window and
// buffer: afterwards each completed exchange has both of its records
// published.
func (f *fleet) quiesce() error {
	f.stopping = true
	if err := f.eng.RunFor(100 * time.Millisecond); err != nil {
		return err
	}
	for _, d := range f.daemons {
		d.Stop()
	}
	return nil
}

// monitorStats sums the monitoring counters of every node.
type monitorStats struct {
	interactions, bufDrops, bufSwitches uint64
	published, batches, pubDrops        uint64
}

func (f *fleet) monitorStats() monitorStats {
	var s monitorStats
	for i, lpa := range f.lpas {
		s.interactions += lpa.Stats().Interactions
		drops, switches := lpa.Buffers().Stats()
		s.bufDrops += drops
		s.bufSwitches += switches
		ds := f.daemons[i].Stats()
		s.published += ds.RecordsPublished
		s.batches += ds.BatchesPublished
		s.pubDrops += ds.RecordsDropped
	}
	return s
}

// fill writes the core and dissem per-layer counters.
func (s monitorStats) fill(o *outcome) {
	o.layers["core.interactions"] = float64(s.interactions)
	o.layers["core.buffer_switches"] = float64(s.bufSwitches)
	o.layers["core.buffer_drops"] = float64(s.bufDrops)
	if s.batches > 0 {
		o.layers["dissem.records_per_batch"] = float64(s.published) / float64(s.batches)
	}
}

// captureProbe measures the capture fleet's node-side layers for a traced
// run: main-goroutine time in Engine.RunFor and, within it, in the
// daemons' OnFull; the kprof events emitted; the monitoring counters; and
// a copy of the kprof stream for probeKprof.
type captureProbe struct {
	run, onFull time.Duration
	onFulls     int64
	events      uint64
	stats       monitorStats
	quiescing   bool // OnFull calls from here on are outside RunFor
	kprof       *kprofRecording
}

// fill writes the sim, dissem, core and kprof per-layer metrics.
func (p *captureProbe) fill(o *outcome) {
	o.layers["sim.ns_per_event"] = float64(p.run-p.onFull) / float64(p.events)
	o.layers["sim.events_per_s"] = float64(p.events) / p.run.Seconds()
	o.layers["dissem.onfull_us_per_batch"] = usPer(p.onFull, p.onFulls)
	p.stats.fill(o)
	probeKprof(p.kprof, o)
}

// capture runs a fresh fleet of the given shape until it has completed
// at least exchanges request/reply exchanges, quiesces it, and returns
// every published columnar batch (copied) and the exchange count. Each
// exchange is in the capture twice: its client record and its server
// record. A non-nil probe is filled as the fleet runs.
func capture(seed int64, shape fleetShape, exchanges uint64, probe *captureProbe) ([]*core.RecordColumns, uint64, error) {
	reg, err := newRegistry()
	if err != nil {
		return nil, 0, err
	}
	broker := pubsub.NewBroker(reg)
	defer broker.Close()
	var batches []*core.RecordColumns
	broker.Subscribe(dissem.ChannelInteractions, func(rec any) {
		cols := rec.(*core.RecordColumns)
		cp := core.NewRecordColumns(cols.Len())
		cp.AppendColumns(cols)
		batches = append(batches, cp)
	})
	var wrap onFullWrap
	if probe != nil {
		wrap = func(d *dissem.Daemon) func(int, *core.RecordColumns, func()) {
			return func(cpu int, batch *core.RecordColumns, release func()) {
				t0 := time.Now()
				d.OnFull(cpu, batch, release)
				if !probe.quiescing {
					probe.onFull += time.Since(t0)
					probe.onFulls++
				}
			}
		}
	}
	f, err := newFleet(seed, shape, broker, wrap)
	if err != nil {
		return nil, 0, err
	}
	if probe != nil {
		hubs := make([]*kprof.Hub, len(f.nodes))
		for i, n := range f.nodes {
			hubs[i] = n.Hub()
		}
		probe.kprof = recordKprof(hubs, 200_000)
	}
	for f.exchanges < exchanges {
		t0 := time.Now()
		err := f.eng.RunFor(10 * time.Millisecond)
		if probe != nil {
			probe.run += time.Since(t0)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	if probe != nil {
		probe.kprof.close()
		probe.events = f.events()
		probe.quiescing = true
	}
	if err := f.quiesce(); err != nil {
		return nil, 0, err
	}
	var records uint64
	for _, b := range batches {
		records += uint64(b.Len())
	}
	st := f.monitorStats()
	if probe != nil {
		probe.stats = st
	}
	if records != 2*f.exchanges || st.bufDrops+st.pubDrops != 0 {
		return nil, 0, fmt.Errorf("capture: %d records for %d exchanges (%d buffer drops, %d publish drops), want 2 per exchange",
			records, f.exchanges, st.bufDrops, st.pubDrops)
	}
	return batches, f.exchanges, nil
}
