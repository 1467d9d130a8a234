package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// epoch anchors nowNS, the monotonic nanosecond clock every timing uses.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// rtSnap is a runtime/metrics reading taken at a phase boundary.
type rtSnap struct {
	allocs     uint64  // heap objects allocated, cumulative
	gcCPU, cpu float64 // GC and total CPU seconds, cumulative estimates
	pauseTotNS uint64  // stop-the-world pause time, cumulative
	heapLiveB  uint64  // live heap as of the last GC
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // total pause time; the metrics package only has a bucketed histogram
	return rtSnap{
		allocs:     samples[0].Value.Uint64(),
		gcCPU:      samples[1].Value.Float64(),
		cpu:        samples[2].Value.Float64(),
		heapLiveB:  samples[3].Value.Uint64(),
		pauseTotNS: ms.PauseTotalNs,
	}
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	return readRuntime().heapLiveB
}

// runtimeLayers adds the runtime/metrics deltas between two readings taken
// around a timed phase of the given number of decisions.
func (r *result) runtimeLayers(before, after rtSnap, decisions int64) {
	r.layer(metric{name: "runtime.allocs_per_decision", unit: "count",
		value: float64(after.allocs-before.allocs) / float64(max(decisions, 1)),
		base:  itoa(decisions) + " decisions"})
	frac := 0.0
	if d := after.cpu - before.cpu; d > 0 {
		frac = (after.gcCPU - before.gcCPU) / d
	}
	r.layer(metric{name: "runtime.gc_cpu_fraction", unit: "ratio", value: frac,
		base: "runtime CPU-seconds over the timed phase"})
	r.layer(metric{name: "runtime.gc_pause_total_ms", unit: "ms",
		value: float64(after.pauseTotNS-before.pauseTotNS) / 1e6})
	r.layer(metric{name: "runtime.heap_live_mb", unit: "MB", value: float64(after.heapLiveB) / 1e6})
}

// medianSetup runs setup reps times and returns the median duration in
// seconds together with the last setup's state. Each earlier state is
// released before the next repetition, so repetitions do not overlap in
// memory. *heapBase receives the live heap before the first repetition:
// released states can stay reachable for a moment (a closed server's
// connection goroutines), so a reading between repetitions is not a clean
// baseline.
func medianSetup[T any](reps int, setup func() (T, error), release func(T), heapBase *uint64) (float64, T, error) {
	var state T
	durs := make([]int64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(state)
			runtime.GC()
		} else {
			*heapBase = liveHeap()
		}
		start := nowNS()
		s, err := setup()
		if err != nil {
			var zero T
			return 0, zero, err
		}
		durs = append(durs, nowNS()-start)
		state = s
	}
	return float64(summarize(durs).p50) / 1e9, state, nil
}

// Interference from outside the benchmark — other tenants of the host, the
// hypervisor taking a vCPU away — only ever slows a run down, and it comes
// and goes within a run. A run therefore splits its timed phase into short
// windows, computes each figure per window, and reports the decile on the
// fast side: the upper decile of the window throughputs and the lower decile
// of the window latencies. On a shared 2-vCPU host, windows hit by CPU steal
// read a loopback p99 of 2-10 ms against 0.25-0.45 ms for quiet ones, and
// runs differ in how many windows are hit; a slowdown confined to fewer
// than nine tenths of the windows does not move the result, while a change
// in the program's own speed moves every window.

// windows splits [start, end) into whole windows of length w (at least one)
// and returns f of each window's samples (at[i] is sample i's time, val[i]
// its value). Samples past the last whole window are dropped.
func windows(at, val []int64, start, end, w int64, f func(vals []int64, seconds float64) float64) []float64 {
	n := max(int((end-start)/w), 1)
	buckets := make([][]int64, n)
	for i, t := range at {
		if b := int((t - start) / w); b >= 0 && b < n {
			buckets[b] = append(buckets[b], val[i])
		}
	}
	per := make([]float64, n)
	for b, vals := range buckets {
		from := start + int64(b)*w
		per[b] = f(vals, float64(min(from+w, end)-from)/1e9)
	}
	return per
}

// fastRate is the upper decile of per-window (or per-call) throughputs.
func fastRate(per []float64) float64 { return quantileFloat(per, 9, 10) }

// fastLatency is the lower decile of per-window latencies. A window whose
// quantile its samples cannot support is NaN and left out; the result is
// NaN only when no window supports it.
func fastLatency(per []float64) float64 {
	var ok []float64
	for _, v := range per {
		if !math.IsNaN(v) {
			ok = append(ok, v)
		}
	}
	if len(ok) == 0 {
		return math.NaN()
	}
	return quantileFloat(ok, 1, 10)
}

// quantileFloat is the nearest-rank num/den quantile of v.
func quantileFloat(v []float64, num, den int) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[quantileRank(len(s), num, den)-1]
}

// p50Window is a window's exact p50 in nanoseconds.
func p50Window(vals []int64, _ float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return nsValue(summarize(vals).p50, 1)
}

// okPerSecond is a window's rate of successful operations.
func okPerSecond(vals []int64, seconds float64) float64 {
	ok := 0
	for _, v := range vals {
		if v != failedNS {
			ok++
		}
	}
	return float64(ok) / seconds
}

// p99Window is a window's exact p99 in nanoseconds, or NaN when fewer than
// ten of the window's samples lie beyond it.
func p99Window(vals []int64, _ float64) float64 {
	s := summarize(vals)
	if s.beyond99 < 10 {
		return math.NaN()
	}
	return nsValue(s.p99, 1)
}

// sumPerSecond is a window's total of the sample values per second.
func sumPerSecond(vals []int64, seconds float64) float64 {
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return float64(sum) / seconds
}
