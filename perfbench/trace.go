package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps spans in memory, one lane per goroutine, and writes them
// out when the run ends. A nil *tracer and a nil *lane are valid and
// record nothing, so the untraced run pays one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	lanes []*lane
	// from and to bound the timed phase. The summaries only count spans
	// that start inside it, so set-up and checks do not count.
	from, to int64
}

// lane is one goroutine's span log. Only its goroutine appends to it;
// mu lets the summaries read it while that goroutine still runs.
type lane struct {
	name  string
	tr    *tracer
	mu    sync.Mutex
	spans []span
	open  []int32
}

// snapshot copies the lane's spans.
func (l *lane) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// span is one call into a layer. Parent is the index of the enclosing
// span in the same lane (-1 = top level).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// startTimed and stopTimed mark the timed phase.
func (t *tracer) startTimed() {
	if t != nil {
		t.from = t.now()
	}
}

func (t *tracer) stopTimed() {
	if t != nil {
		t.to = t.now()
	}
}

// timed reports whether s started in the timed phase and has ended: a
// subscriber still blocked in Recv when the summaries run has no end yet.
func (t *tracer) timed(s span) bool { return s.Start >= t.from && s.Start < t.to && s.End >= s.Start }

// allLanes copies the lane list.
func (t *tracer) allLanes() []*lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*lane(nil), t.lanes...)
}

// lane opens a goroutine's span log.
func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	l := &lane{name: name, tr: t, spans: make([]span, 0, 1<<12)}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// begin opens a span and returns its handle for end.
func (l *lane) begin(name string) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Start: l.tr.now(), Parent: parent})
	idx := int32(len(l.spans) - 1)
	l.open = append(l.open, idx)
	return idx
}

// end closes the span begin returned.
func (l *lane) end(idx int32) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[idx].End = l.tr.now()
	l.open = l.open[:len(l.open)-1]
}

// layerTime is one span name's totals.
type layerTime struct {
	count      int64
	total, own time.Duration // own = total minus time covered by child spans
}

// byName sums the timed spans named name across all lanes.
func (t *tracer) byName(name string) layerTime {
	if t == nil {
		return layerTime{}
	}
	return t.layers()[name]
}

// layers aggregates count, total and self time per span name over the
// timed phase.
func (t *tracer) layers() map[string]layerTime {
	out := map[string]layerTime{}
	for _, l := range t.allLanes() {
		spans := l.snapshot()
		child := make([]int64, len(spans))
		for _, s := range spans {
			if s.Parent >= 0 && s.End >= s.Start {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range spans {
			if !t.timed(s) {
				continue
			}
			lt := out[s.Name]
			lt.count++
			lt.total += time.Duration(s.End - s.Start)
			lt.own += time.Duration(s.End - s.Start - child[i])
			out[s.Name] = lt
		}
	}
	return out
}

// covered is how much of the timed phase l's top-level spans cover.
// Lanes with no span in the timed phase report ok=false.
func (t *tracer) covered(l *lane) (d time.Duration, ok bool) {
	for _, s := range l.snapshot() {
		if s.End < s.Start { // still open: it covers the rest of the phase
			s.End = t.to
		}
		if s.Parent >= 0 || s.End <= t.from || s.Start >= t.to {
			continue
		}
		ok = true
		d += time.Duration(min(s.End, t.to) - max(s.Start, t.from))
	}
	return d, ok
}

// fillCoverage reports, for the load goroutine and for the subscriber
// or writer goroutines together, the timed wall time their layer spans
// cover and the unattributed rest.
func (t *tracer) fillCoverage(o *outcome) {
	window := time.Duration(t.to - t.from)
	for _, role := range []string{"load", "sink"} {
		var total, covered time.Duration
		for _, l := range t.allLanes() {
			if d, ok := t.covered(l); ok && strings.HasPrefix(l.name, role) {
				total += window
				covered += d
			}
		}
		o.layers["trace."+role+"_covered_ms"] = durMS(covered)
		o.layers["trace."+role+"_unattributed_ms"] = durMS(total - covered)
	}
}

// summary renders per-goroutine coverage and per-layer self time over
// the timed phase, for standard error.
func (t *tracer) summary() string {
	var sb strings.Builder
	window := time.Duration(t.to - t.from)
	for _, l := range t.allLanes() {
		if d, ok := t.covered(l); ok {
			fmt.Fprintf(&sb, "  goroutine %-12s timed %10.1f ms  in spans %10.1f ms  unattributed %10.1f ms\n",
				l.name, durMS(window), durMS(d), durMS(window-d))
		}
	}
	layers := t.layers()
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lt := layers[n]
		fmt.Fprintf(&sb, "  layer %-24s calls %9d  total %10.1f ms  self %10.1f ms\n",
			n, lt.count, durMS(lt.total), durMS(lt.own))
	}
	return sb.String()
}

// write stores every span as one JSON line under
// .bench_build/perfbench-trace/ in the working directory.
func (t *tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range t.allLanes() {
		for _, s := range l.snapshot() {
			if err := enc.Encode(struct {
				Lane string `json:"lane"`
				span
			}{l.name, s}); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
