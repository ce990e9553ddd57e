package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"time"

	"sysprof/internal/core"
	"sysprof/internal/kprof"
	"sysprof/internal/pbio"
	"sysprof/internal/simnet"
)

// kprofRecording copies the kprof event stream of a set of hubs, as the
// interaction LPA subscribes to it (core.MaskDefault()).
type kprofRecording struct {
	subs    []*kprof.Subscription
	streams map[simnet.NodeID][]kprof.Event
	events  int
	limit   int
}

func recordKprof(hubs []*kprof.Hub, limit int) *kprofRecording {
	r := &kprofRecording{streams: map[simnet.NodeID][]kprof.Event{}, limit: limit}
	for _, h := range hubs {
		node := h.Node()
		r.subs = append(r.subs, h.Subscribe(core.MaskDefault(), func(ev *kprof.Event) {
			if r.events < r.limit {
				r.streams[node] = append(r.streams[node], *ev)
				r.events++
			}
		}))
	}
	return r
}

func (r *kprofRecording) close() {
	for _, s := range r.subs {
		s.Close()
	}
}

// replay emits every recorded event into a fresh hub per node and
// returns the wall time taken. With lpa set, an interaction LPA is
// subscribed to each hub (its buffers release at once); otherwise a
// no-op handler is.
func (r *kprofRecording) replay(lpa bool) time.Duration {
	var total time.Duration
	for node, evs := range r.streams {
		var now time.Duration
		hub := kprof.NewHub(node, func() time.Duration { return now })
		if lpa {
			core.NewLPA(hub, core.Config{NumCPUs: 2, OnFull: func(_ int, _ *core.RecordColumns, release func()) { release() }})
		} else {
			hub.Subscribe(core.MaskDefault(), func(*kprof.Event) {})
		}
		t0 := time.Now()
		for i := range evs {
			ev := evs[i]
			now = ev.Time
			hub.Emit(&ev)
		}
		total += time.Since(t0)
	}
	return total
}

// probeKprof fills kprof.emit_ns_per_event and core.lpa_ns_per_event:
// the median of five replays with a no-op subscriber, and the median
// extra cost when the subscriber is an LPA.
func probeKprof(r *kprofRecording, o *outcome) {
	if r.events == 0 {
		return
	}
	var bare, withLPA []float64
	for i := 0; i < 5; i++ {
		bare = append(bare, float64(r.replay(false))/float64(r.events))
		withLPA = append(withLPA, float64(r.replay(true))/float64(r.events))
	}
	emit := quantile(bare, 0.5)
	o.layers["kprof.emit_ns_per_event"] = emit
	o.layers["core.lpa_ns_per_event"] = quantile(withLPA, 0.5) - emit
}

// codec encodes and decodes columnar batches in memory, through the
// same encode plan and decoder the broker and subscribers use.
type codec struct {
	reg  *pbio.Registry
	plan *pbio.Plan
}

func newCodec() (*codec, error) {
	reg, err := newRegistry()
	if err != nil {
		return nil, err
	}
	plan := reg.PlanFor(reflect.TypeOf(core.Record{}))
	if plan == nil {
		return nil, fmt.Errorf("no encode plan for core.Record")
	}
	return &codec{reg: reg, plan: plan}, nil
}

// encode appends the format definition and one frame per batch, plain
// (0x04) or compressed (0x05).
func (c *codec) encode(buf []byte, batches []*core.RecordColumns, compressed bool) ([]byte, error) {
	buf = c.plan.Format().AppendDef(buf)
	var err error
	for _, b := range batches {
		if compressed {
			buf, _, err = c.plan.AppendCompressedColumnsFrame(buf, b)
		} else {
			buf, _, err = c.plan.AppendColumnsFrame(buf, b)
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decode reads every batch back from an encoded stream in memory.
func (c *codec) decode(stream []byte) ([]*core.RecordColumns, error) {
	dec := pbio.NewDecoder(bytes.NewReader(stream), c.reg)
	var out []*core.RecordColumns
	for {
		rec, err := dec.Decode()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, err
		}
		cols, ok := rec.Value.(*core.RecordColumns)
		if !ok {
			return out, fmt.Errorf("decoded %T, want columnar batch", rec.Value)
		}
		out = append(out, cols)
	}
}

// roundTrip checks decode∘encode = identity on batches, for both frame
// kinds.
func (c *codec) roundTrip(batches []*core.RecordColumns) error {
	for _, z := range []bool{false, true} {
		stream, err := c.encode(nil, batches, z)
		if err != nil {
			return err
		}
		got, err := c.decode(stream)
		if err != nil {
			return err
		}
		if len(got) != len(batches) {
			return fmt.Errorf("compressed=%v: decoded %d batches, encoded %d", z, len(got), len(batches))
		}
		for i := range got {
			if !sameColumns(got[i], batches[i]) {
				return fmt.Errorf("compressed=%v: batch %d differs after decode∘encode", z, i)
			}
		}
	}
	return nil
}

// sameColumns compares two batches row for row over every column.
func sameColumns(a, b *core.RecordColumns) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Row(i) != b.Row(i) {
			return false
		}
	}
	return true
}

// probeCodec fills the pbio per-record costs over batches: plain and
// compressed encode, and decode of the compressed stream from memory
// (no syscalls). Each is the median of five passes.
func probeCodec(c *codec, batches []*core.RecordColumns, o *outcome) error {
	var records int
	for _, b := range batches {
		records += b.Len()
	}
	if records == 0 {
		return nil
	}
	var plain, z, dec []float64
	buf := make([]byte, 0, 1<<20)
	var stream []byte
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		b, err := c.encode(buf[:0], batches, false)
		if err != nil {
			return err
		}
		plain = append(plain, float64(time.Since(t0))/float64(records))
		buf = b
		t0 = time.Now()
		if stream, err = c.encode(stream[:0], batches, true); err != nil {
			return err
		}
		z = append(z, float64(time.Since(t0))/float64(records))
		t0 = time.Now()
		if _, err := c.decode(stream); err != nil {
			return err
		}
		dec = append(dec, float64(time.Since(t0))/float64(records))
	}
	o.layers["pbio.encode_plain_ns_per_record"] = quantile(plain, 0.5)
	o.layers["pbio.encode_z_ns_per_record"] = quantile(z, 0.5)
	o.layers["pbio.decode_ns_per_record"] = quantile(dec, 0.5)
	return nil
}
