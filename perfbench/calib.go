package main

import (
	"runtime"
	"slices"
)

// Host-speed calibration. The benchmark runs on a share of a machine whose
// other tenants move its speed, for seconds to minutes at a time, by 30-60%
// (slot-wide's RunSlot p50 read 290 us and 460 us a minute apart on the
// same build). No estimator inside one run removes a swing that lasts
// longer than the run, so every timed window interleaves pieces of a fixed
// reference kernel that shares no code with the program under test, and
// each of the window's times is scaled by calNominalNS over the kernel's
// mean time in that window: it reads as it would on a host where one
// piece takes calNominalNS. A change to the program moves its own times
// and not the kernel's, so the scaling keeps it; a change of host speed
// moves both, so the scaling cancels it.
//
// The kernel fills a buffer from a fixed pseudo-random stream and sorts
// it: branchy, cache-resident work that tracked the slot workloads' swings
// best among an ALU loop, a 2 MiB random walk and this sort. Interleaved
// per chunk over minutes of slot-uniform, it cut the spread of 10-second
// medians (interquartile range over median) from 0.17 to 0.04; the other
// two kernels left 0.07-0.10. It tracks slot-wide less well: 0.12 to 0.03
// in one stretch of minutes, 0.25 to 0.14 in another.
const (
	calLen = 4096
	// calNominalNS is the reference host's time for one piece (thread
	// CPU of a 2 GHz Xeon vCPU at its faster level). It only sets the
	// scale of the reported times; changing it would break comparison
	// with earlier results.
	calNominalNS = 400_000
)

// calibrator runs the reference kernel; its buffer is allocated before the
// heap baseline.
type calibrator struct {
	buf []uint32
	ns  int64 // kernel time since the last take
	n   int
}

func newCalibrator() *calibrator { return &calibrator{buf: make([]uint32, calLen)} }

// piece runs the kernel once, locked to the calling OS thread, and adds
// its thread CPU time to the tally.
func (c *calibrator) piece() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUNS()
	x := uint32(2463534242)
	for i := range c.buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.buf[i] = x
	}
	slices.Sort(c.buf)
	c.ns += threadCPUNS() - t0
	c.n++
}

// take returns the tally since the last take and resets it.
func (c *calibrator) take() (ns int64, n int) {
	ns, n = c.ns, c.n
	c.ns, c.n = 0, 0
	return ns, n
}

// factor takes the tally and returns its speed factor.
func (c *calibrator) factor() float64 {
	ns, n := c.take()
	return speedFactor(window{calNS: ns, calN: n})
}

// speedFactor is calNominalNS over a window's mean piece time: the factor
// that scales the window's times to the reference host. A window without
// pieces keeps its times.
func speedFactor(w window) float64 {
	if w.calN == 0 || w.calNS <= 0 {
		return 1
	}
	return float64(calNominalNS) * float64(w.calN) / float64(w.calNS)
}
