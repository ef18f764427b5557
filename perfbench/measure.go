package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// epoch anchors the benchmark clock: every stamp is nanoseconds since
// process start on the monotonic clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// cpuNS returns the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// threadCPUNS returns the calling OS thread's CPU time. Unlike the wall
// clock it stops while the hypervisor runs other guests on this vCPU.
func threadCPUNS() int64 {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: thread CPU clock: " + e.Error())
	}
	return ts.Nano()
}

// samples holds raw nanosecond durations. Percentiles are read from the
// sorted samples, so they carry no bucketing error.
type samples struct {
	ns     []int64
	sorted bool
}

func newSamples(capacity int) *samples {
	return &samples{ns: make([]int64, 0, capacity)}
}

func (s *samples) add(ns int64) {
	s.ns = append(s.ns, ns)
	s.sorted = false
}

func (s *samples) n() int64 { return int64(len(s.ns)) }

func (s *samples) sum() int64 {
	var t int64
	for _, v := range s.ns {
		t += v
	}
	return t
}

func (s *samples) mean() float64 {
	if len(s.ns) == 0 {
		return 0
	}
	return float64(s.sum()) / float64(len(s.ns))
}

// quantile returns the nearest-rank q-quantile: the smallest sample with
// at least a q share of the samples at or below it.
func (s *samples) quantile(q float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
		s.sorted = true
	}
	i := int(math.Ceil(q*float64(len(s.ns)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s.ns[i])
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// heapAllocs returns the cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap measures the live Go heap — the bytes a GC found reachable —
// that the program holds at the end of a timed phase, above a baseline
// taken before set-up, so heap_mb counts what the program under test
// holds, not the benchmark's own inputs and sample buffers (allocated
// before the baseline). Both readings follow a forced GC with the program
// idle. Live bytes, unlike the heap's current size, do not swing with
// garbage and GC timing; a reading with the program idle, unlike the
// peak over the collections during the phase, does not swing with the
// objects allocated while a collection was marking, which count as live.
type liveHeap struct{ baseline, end uint64 }

func newLiveHeap() *liveHeap { return &liveHeap{baseline: liveAfterGC()} }

// finish takes the end-of-phase reading.
func (h *liveHeap) finish() { h.end = liveAfterGC() }

// mb returns the live heap at the end above the baseline in MiB.
func (h *liveHeap) mb() float64 {
	if h.end <= h.baseline {
		return 0
	}
	return float64(h.end-h.baseline) / (1 << 20)
}

// liveAfterGC collects garbage and returns the live heap it found.
func liveAfterGC() uint64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// window is one stretch of a timed run: its operations, the wall time
// and process CPU they took, their range in the run's samples, and the
// calibration pieces interleaved with them (calib.go).
type window struct {
	ops           int
	wallNS, cpuNS int64
	lo, hi        int
	calNS         int64
	calN          int
}

// minWindowOps is the smallest window summarized: at 1000 operations a
// window's p99 still has ten samples beyond it, and its p95 fifty.
const minWindowOps = 1000

// windowStats are the medians over a run's windows of each window's
// latency quantiles, rate and CPU per operation, each scaled to the
// reference host by the window's speed factor (calib.go). A median over
// windows keeps a stall of the shared host inside one window from moving
// the result, where a whole-run mean or p99 would absorb it. Every
// workload uses this one estimator. slowdown is the median over windows
// of the host's piece time over calNominalNS, the factor the scaling
// removed.
type windowStats struct {
	windows             int
	p50NS, p95NS, p99NS float64
	opsPerS, cpuNSPerOp float64
	slowdown            float64
}

func summarize(ws []window, ns []int64) windowStats {
	vals := make([]windowVals, 0, len(ws))
	for _, w := range ws {
		vals = append(vals, windowValues(w, ns))
	}
	return medianOver(vals)
}

// windowVals are one window's figures, scaled to the reference host.
type windowVals struct {
	p50, p95, p99, rate, cpu, slow float64
}

// windowValues summarizes window w, whose samples are ns[w.lo:w.hi]; it
// sorts them in place.
func windowValues(w window, ns []int64) windowVals {
	f := speedFactor(w)
	s := &samples{ns: ns[w.lo:w.hi]}
	return windowVals{
		p50: f * s.quantile(0.50), p95: f * s.quantile(0.95), p99: f * s.quantile(0.99),
		rate: ratio(float64(w.ops), f*float64(w.wallNS)/1e9),
		cpu:  f * float64(w.cpuNS) / float64(w.ops),
		slow: 1 / f,
	}
}

// medianOver takes the median of each figure over the windows.
func medianOver(vals []windowVals) windowStats {
	pick := func(get func(windowVals) float64) float64 {
		xs := make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = get(v)
		}
		return median(xs)
	}
	return windowStats{
		windows:    len(vals),
		p50NS:      pick(func(v windowVals) float64 { return v.p50 }),
		p95NS:      pick(func(v windowVals) float64 { return v.p95 }),
		p99NS:      pick(func(v windowVals) float64 { return v.p99 }),
		opsPerS:    pick(func(v windowVals) float64 { return v.rate }),
		cpuNSPerOp: pick(func(v windowVals) float64 { return v.cpu }),
		slowdown:   pick(func(v windowVals) float64 { return v.slow }),
	}
}

// gcCycles returns the number of completed GC cycles.
func gcCycles() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}
