package main

import (
	"errors"
	"sync"

	"wdmsched/internal/core"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/wavelength"
)

// coreTimer is an interconnect.BatchScheduler that runs the paper's
// per-port schedulers in process, like the sequential engine, recording a
// span around every core.Scheduler.Schedule call. Plugged into the public
// Config.Remote seam it separates core time from the slot engine's own
// work (prepare, commit, holds) without editing either: the switch runs
// prepare for every port, hands the batch here, then runs commit.
type coreTimer struct {
	scheds []core.Scheduler // one per output port
	lane   *lane
	// batchSpan wraps each batch in a span of its own; set when no
	// enclosing span exists on the lane (inside a grant round).
	batchSpan bool

	// mu orders the grant round loop's calls against the benchmark
	// goroutine's reset and reads.
	mu                 sync.Mutex
	requested, matched int64
	batches            int64
}

func newCoreTimer(n int, conv wavelength.Conversion, scheduler string, ln *lane, batchSpan bool) (*coreTimer, error) {
	c := &coreTimer{lane: ln, batchSpan: batchSpan}
	for o := 0; o < n; o++ {
		s, err := core.NewByName(scheduler, conv)
		if err != nil {
			return nil, err
		}
		c.scheds = append(c.scheds, s)
	}
	return c, nil
}

// ScheduleBatch implements interconnect.BatchScheduler. Empty request
// vectors get the empty matching without a call, as in the engines.
func (c *coreTimer) ScheduleBatch(slot int64, reqs []interconnect.BatchRequest, out []interconnect.BatchResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := int32(-1)
	if c.batchSpan {
		b = c.lane.begin(spanCoreBatch, slot, int32(len(reqs)))
	}
	for i := range reqs {
		r := &reqs[i]
		if r.Mask != nil {
			return errors.New("perfbench: fault masks are outside every benchmark workload")
		}
		res := out[i].Res
		total := core.TotalRequests(r.Count)
		if total == 0 {
			res.Reset()
			continue
		}
		sp := c.lane.begin(spanSchedule, slot, int32(r.Port))
		c.scheds[r.Port].Schedule(r.Count, r.Occupied, res)
		c.lane.end(sp)
		c.requested += int64(total)
		c.matched += int64(res.Size)
	}
	if b >= 0 {
		c.lane.end(b)
	}
	c.batches++
	return nil
}

// reset drops the spans and counters recorded so far (after warm-up).
func (c *coreTimer) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lane.reset()
	c.requested, c.matched, c.batches = 0, 0, 0
}

// batchTimer wraps a BatchScheduler — the cluster controller — in a span
// per slot.
type batchTimer struct {
	next interconnect.BatchScheduler
	lane *lane
}

func (b *batchTimer) ScheduleBatch(slot int64, reqs []interconnect.BatchRequest, out []interconnect.BatchResult) error {
	sp := b.lane.begin(spanClusterBatch, slot, int32(len(reqs)))
	err := b.next.ScheduleBatch(slot, reqs, out)
	b.lane.end(sp)
	return err
}
