package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is this process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readSyscalls is the read(2)-family syscall count of this process
// (syscr in /proc/self/io), or -1 where the kernel does not expose it.
func readSyscalls() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "syscr:"); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// meter brackets a timed phase: wall time, own CPU, heap allocations,
// read syscalls and operation latencies between start and stop. The
// workload closes a window (lap) about every second or every whole round
// of its operations; the figures it reports are medians over those
// windows, so a burst of load from outside the benchmark moves one
// window, not the result.
type meter struct {
	tr *tracer
	at sample // start of the timed phase
	// lapAt opens the current window; lapOps and lapLat are the operation
	// and latency-sample counts then.
	lapAt   sample
	lapOps  float64
	lapLat  int
	windows []window
	all     []float64 // every latency sample of the timed phase, ms

	elapsed   time.Duration
	readCalls int64
	heapMB    float64
}

// sample is one reading of the process's clocks and counters, and of
// the machine's steal time.
type sample struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	steal   int64
}

func takeSample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, steal: stealTicks()}
}

// stealTicks is the machine's cumulative steal time in clock ticks (the
// time a hypervisor ran something else while this machine's CPUs had
// work), or 0 where /proc/stat does not report it.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// window is one lap's operations, what they cost, and their latency
// percentiles (ok = enough samples for a 90th percentile).
type window struct {
	ops      float64
	steal    int64 // steal ticks during the window
	wall     time.Duration
	cpu      time.Duration
	allocs   uint64
	p50, p90 float64
	latOK    bool
}

// stealRate is the steal ticks per second of a window.
func stealRate(w window) float64 { return float64(w.steal) / w.wall.Seconds() }

// minWindowSamples is the fewest latency samples a window needs to
// count towards the latency percentiles.
const minWindowSamples = 10

// startMeter opens the timed phase, on tr too when the run is traced.
func startMeter(tr *tracer) *meter {
	m := &meter{tr: tr}
	defer tr.startTimed()
	m.readCalls = readSyscalls()
	m.at = takeSample()
	m.lapAt = m.at
	return m
}

// lap closes the current window. ops counts operations since the timed
// phase began, and lat holds every latency sample (ms) since then.
func (m *meter) lap(ops float64, lat []float64) {
	now := takeSample()
	w := window{
		ops:    ops - m.lapOps,
		steal:  now.steal - m.lapAt.steal,
		wall:   now.wall.Sub(m.lapAt.wall),
		cpu:    now.cpu - m.lapAt.cpu,
		allocs: now.mallocs - m.lapAt.mallocs,
	}
	if fresh := lat[m.lapLat:]; len(fresh) >= minWindowSamples {
		xs := append([]float64(nil), fresh...)
		w.p50, w.p90, w.latOK = quantile(xs, 0.5), quantile(xs, 0.9), true
	}
	m.windows = append(m.windows, w)
	m.lapAt, m.lapOps, m.lapLat = now, ops, len(lat)
	m.all = lat
}

// lapDue reports whether the current window has run for a second.
func (m *meter) lapDue() bool { return time.Since(m.lapAt.wall) >= time.Second }

// stop closes the timed phase with the final counts, then forces a
// collection and records the live heap: the state the program keeps,
// not where the collector happened to be. The last partial window
// counts only if it is the only one.
func (m *meter) stop(ops float64, lat []float64) {
	m.elapsed = time.Since(m.at.wall)
	m.tr.stopTimed()
	m.readCalls = readSyscalls() - m.readCalls
	if len(m.windows) == 0 {
		m.lap(ops, lat)
	}
	m.all = lat
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapMB = float64(ms.HeapAlloc) / 1e6
}

// fill writes the end-to-end metrics other than setup_s: the median
// window's throughput, CPU and allocations per operation and latency
// percentiles, and the live heap. Only windows that lost no more time to
// steal than the median window count: on a shared virtual machine the
// rest measure the neighbours. A run too short for any window with enough
// latency samples takes its percentiles over all of them.
func (m *meter) fill(o *outcome) {
	rates := make([]float64, len(m.windows))
	for i, w := range m.windows {
		rates[i] = stealRate(w)
	}
	calm := quantile(rates, 0.5)
	var ws []window
	for _, w := range m.windows {
		if stealRate(w) <= calm {
			ws = append(ws, w)
		}
	}
	var rate, cpu, allocs, p50, p90 []float64
	for _, w := range ws {
		if w.ops > 0 {
			rate = append(rate, w.ops/w.wall.Seconds())
			cpu = append(cpu, float64(w.cpu)/1e3/w.ops)
			allocs = append(allocs, float64(w.allocs)/w.ops)
		}
		if w.latOK {
			p50 = append(p50, w.p50)
			p90 = append(p90, w.p90)
		}
	}
	if len(p50) == 0 {
		xs := append([]float64(nil), m.all...)
		p50, p90 = []float64{quantile(xs, 0.5)}, []float64{quantile(xs, 0.9)}
	}
	o.e2e["ops_per_s"] = quantile(rate, 0.5)
	o.e2e["cpu_us_per_op"] = quantile(cpu, 0.5)
	o.e2e["allocs_per_op"] = quantile(allocs, 0.5)
	o.e2e["latency_p50_ms"] = quantile(p50, 0.5)
	o.e2e["latency_p90_ms"] = quantile(p90, 0.5)
	o.e2e["heap_live_mb"] = m.heapMB
}

// quantile is the q-quantile of xs by linear interpolation (xs is sorted
// in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// durMS converts a duration to float milliseconds.
func durMS(d time.Duration) float64 { return float64(d) / 1e6 }

// setupRepeats is how many times each workload sets up per run.
const setupRepeats = 5

// setupMedian runs build n times and returns, with the last build's
// result, the median wall time of the set-ups that lost no more time to
// steal than the median set-up, as meter.fill counts windows. build tears
// its earlier results down itself.
func setupMedian[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times, rates []float64
	for i := 0; i < n; i++ {
		at := takeSample()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		now := takeSample()
		w := window{wall: now.wall.Sub(at.wall), steal: now.steal - at.steal}
		times = append(times, w.wall.Seconds())
		rates = append(rates, stealRate(w))
		if i < n-1 {
			discard(v)
		}
		last = v
	}
	calm := quantile(append([]float64(nil), rates...), 0.5)
	var kept []float64
	for i, t := range times {
		if rates[i] <= calm {
			kept = append(kept, t)
		}
	}
	return last, quantile(kept, 0.5), nil
}
