package main

import (
	"fmt"
	"math"
	"runtime"

	"wdmsched/internal/interconnect"
)

// clusterSnap is a point-in-time copy of the controller's cluster
// counters, so per-layer figures cover the traced pass alone.
type clusterSnap struct {
	rpc, encode, decode, schedule, nodeEncode [2]int64 // sum ns, count
	bytes, remote, fallback, retries          int64
}

func snapCluster(cs *interconnect.ClusterStats) clusterSnap {
	h := func(sum int64, n int64) [2]int64 { return [2]int64{sum, n} }
	return clusterSnap{
		rpc:        h(int64(cs.RPCLatency.Sum()), cs.RPCLatency.Count()),
		encode:     h(int64(cs.EncodeTime.Sum()), cs.EncodeTime.Count()),
		decode:     h(int64(cs.NodeDecodeTime.Sum()), cs.NodeDecodeTime.Count()),
		schedule:   h(int64(cs.NodeScheduleTime.Sum()), cs.NodeScheduleTime.Count()),
		nodeEncode: h(int64(cs.NodeEncodeTime.Sum()), cs.NodeEncodeTime.Count()),
		bytes:      cs.BytesSent.Value() + cs.BytesReceived.Value(),
		remote:     cs.RemoteItems.Value(),
		fallback:   cs.LocalFallbackItems.Value(),
		retries:    cs.Retries.Value(),
	}
}

// meanUS is the mean of a histogram's observations between two snapshots.
func meanUS(a, b [2]int64) float64 {
	n := b[1] - a[1]
	if n == 0 {
		return 0
	}
	return float64(b[0]-a[0]) / float64(n) / 1e3
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slotTrace is the outcome of a traced slot run.
type slotTrace struct {
	pu, pt             passStats // untraced and traced passes over the same slots
	stats              *interconnect.Stats
	lane               *lane
	rows               [numSpanNames]selfRow
	matched, requested int64
	allocs             uint64 // heap allocations during the traced pass
	cs0, cs1           clusterSnap
	cluster            bool
}

// perSlotNS returns the traced attribution per slot: time below the seam
// (core, or the cluster batch) and the engine's own time around it.
func (t *slotTrace) perSlotNS() (below, self float64) {
	slots := float64(t.pt.slots)
	run := float64(t.rows[spanRunSlot].total)
	in := float64(t.rows[spanSchedule].total)
	if t.cluster {
		in = float64(t.rows[spanClusterBatch].total)
	}
	return in / slots, (run - in) / slots
}

// traceSlots runs a slot workload twice over the same slots. An untraced
// pass of half the run time sets the slot count and the Stats, and is
// checked against the reference run; the traced pass replays the same
// slots through the span-recording seams and must reproduce those Stats
// field by field.
func traceSlots(opt options, spec slotSpec) (*slotTrace, error) {
	t := &slotTrace{cluster: spec.nodes > 0}
	in, err := newInputs(spec, opt.seed)
	if err != nil {
		return nil, err
	}
	rig, _, err := setupRig(spec, opt.seed, in, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	t.pu, err = timedPass(rig.sw, in, runDeadline(opt.seconds/2), spec.clock(), newSamples(slotCapacity(opt.seconds)), nil, nil)
	if err != nil {
		rig.close()
		return nil, err
	}
	if t.stats, err = finish(rig, spec, opt.seed, nil); err != nil {
		return nil, err
	}

	spansPerSlot := spec.n + 1
	if t.cluster {
		spansPerSlot = 2
	}
	t.lane = newLane("slot loop", (spec.warm+t.pu.slots)*spansPerSlot)
	inT, err := newInputs(spec, opt.seed)
	if err != nil {
		return nil, err
	}
	rigT, _, err := setupRig(spec, opt.seed, inT, t.lane)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	if rigT.core != nil {
		rigT.core.reset()
	}
	t.lane.reset()
	if t.cluster {
		t.cs0 = snapCluster(rigT.ctrl.ClusterStats())
	}
	runtime.GC()
	allocs0 := heapAllocs()
	t.pt, err = timedPass(rigT.sw, inT, math.MaxInt64, nowNS, newSamples(t.pu.slots), t.lane, nil)
	allocs1 := heapAllocs()
	if err != nil {
		rigT.close()
		return nil, err
	}
	t.allocs = allocs1 - allocs0
	if t.cluster {
		t.cs1 = snapCluster(rigT.ctrl.ClusterStats())
	}
	if rigT.core != nil {
		t.matched, t.requested = rigT.core.matched, rigT.core.requested
	}
	if _, err := finish(rigT, spec, opt.seed, t.stats); err != nil {
		return nil, err
	}
	t.rows = selfTimes([]*lane{t.lane})
	return t, nil
}

// traceSlotWorkload reports a slot workload's per-layer metrics.
func traceSlotWorkload(opt options, spec slotSpec, rep *report) error {
	t, err := traceSlots(opt, spec)
	if err != nil {
		return err
	}
	rep.attempted = 2 * int64(spec.warm+t.pu.slots)
	slots := float64(t.pt.slots)
	n := int64(t.pt.slots)
	below, self := t.perSlotNS()
	run := float64(t.rows[spanRunSlot].total) / slots
	calls := t.lane.durations(spanSchedule)
	offered := float64(t.stats.Offered.Value())
	rep.set("core.busy_us_per_slot", float64(t.rows[spanSchedule].total)/slots/1e3, calls.n(), "Σ core.Schedule per slot")
	rep.set("core.share", ratio(float64(t.rows[spanSchedule].total)/slots, run), calls.n(), "core time / RunSlot time")
	rep.set("core.call_p50_ns", calls.quantile(0.50), calls.n(), "one Schedule call, p50")
	rep.set("core.call_p99_ns", calls.quantile(0.99), calls.n(), "one Schedule call, p99")
	rep.set("core.calls_per_slot", float64(calls.n())/slots, calls.n(), "non-empty ports scheduled per slot")
	rep.set("core.match_ratio", ratio(float64(t.matched), float64(t.requested)), t.requested, "matched / requested")
	rep.set("interconnect.self_us_per_slot", self/1e3, n, "RunSlot minus the time below the seam")
	rep.set("interconnect.share", ratio(self, run), n, "interconnect self / RunSlot")
	rep.set("interconnect.allocs_per_slot", float64(t.allocs)/slots, n, "heap allocations per traced slot")
	rep.set("interconnect.arrivals_per_slot", offered/float64(t.stats.Slots), int64(t.stats.Slots), "offered packets per slot")
	rep.set("interconnect.input_blocked_ratio", ratio(float64(t.stats.InputBlocked.Value()), offered), int64(offered), "input-blocked / offered")
	if t.cluster {
		cs0, cs1 := t.cs0, t.cs1
		batch := t.lane.durations(spanClusterBatch)
		rep.set("cluster.batch_us_p50", batch.quantile(0.50)/1e3, batch.n(), "Controller.ScheduleBatch p50")
		rep.set("cluster.batch_us_p99", batch.quantile(0.99)/1e3, batch.n(), "Controller.ScheduleBatch p99")
		rep.set("cluster.rpc_us_mean", meanUS(cs0.rpc, cs1.rpc), cs1.rpc[1]-cs0.rpc[1], "schedule RPC round trip")
		rep.set("cluster.encode_us_mean", meanUS(cs0.encode, cs1.encode), cs1.encode[1]-cs0.encode[1], "controller frame encode")
		rep.set("cluster.node_decode_us_mean", meanUS(cs0.decode, cs1.decode), cs1.decode[1]-cs0.decode[1], "node frame decode")
		rep.set("cluster.node_schedule_us_mean", meanUS(cs0.schedule, cs1.schedule), cs1.schedule[1]-cs0.schedule[1], "node schedule barrier")
		rep.set("cluster.node_encode_us_mean", meanUS(cs0.nodeEncode, cs1.nodeEncode), cs1.nodeEncode[1]-cs0.nodeEncode[1], "node reply encode")
		rep.set("cluster.bytes_per_slot", float64(cs1.bytes-cs0.bytes)/slots, n, "wire bytes both ways per slot")
		items := float64(cs1.remote - cs0.remote + cs1.fallback - cs0.fallback)
		rep.set("cluster.fallback_ratio", ratio(float64(cs1.fallback-cs0.fallback), items), int64(items), "ports scheduled by local fallback")
		rep.set("cluster.retries", float64(cs1.retries-cs0.retries), n, "re-sent schedule RPCs")
	}
	rep.set("trace.overhead_ratio", ratio(float64(t.pt.cpuNS), float64(t.pu.cpuNS)), n, "CPU per slot, traced / untraced")
	rep.note("attribution: below-seam %.3f + interconnect self %.3f = %.3f us/slot traced; untraced timed loop %.3f us/slot",
		below/1e3, self/1e3, run/1e3, float64(t.pu.wallNS)/float64(t.pu.slots)/1e3)
	rep.note("traced Stats field-identical to the untraced run, which matches the reference run (%d slots)", t.stats.Slots)
	writeSelfTable(opt.out, t.rows, n)
	path, err := writeTrace(opt.traceDir, opt.workload, []*lane{t.lane}, t.rows, n)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	rep.note("trace: %s (%d spans)", path, len(t.lane.spans))
	return nil
}
