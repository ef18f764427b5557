package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"wdmsched/internal/cluster"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// slotSpec is the shape and traffic of a closed-loop slot workload: the
// benchmark calls RunSlot back to back on pre-generated arrivals.
type slotSpec struct {
	n         int
	conv      wavelength.Conversion
	scheduler string
	load      float64
	hold      traffic.HoldingTime
	nodes     int // > 0 schedules on that many loopback cluster nodes
	warm      int // warm-up slots run inside set-up
	procs     int // GOMAXPROCS for the run; 0 keeps the default
}

// clock returns the clock each RunSlot is timed with. The sequential
// engine does all of a slot's work on the calling thread, so the
// thread's CPU time is the slot's cost without the time the hypervisor
// gave the vCPU to other guests, which the wall clock counts and which
// swings with the load on the shared host; the caller must be locked to
// its OS thread. A cluster slot also waits on its nodes, so it is timed
// by the wall clock.
func (s slotSpec) clock() func() int64 {
	if s.nodes > 0 {
		return nowNS
	}
	return threadCPUNS
}

func slotSpecFor(workload string) (slotSpec, error) {
	switch workload {
	case "slot-uniform", "cluster-loopback":
		// The paper's evaluation shape (§V): circular d=3, scalar BFA,
		// Bernoulli 0.9 with geometric holding times of mean 2 slots.
		conv, err := wavelength.NewSymmetric(wavelength.Circular, 16, 3)
		if err != nil {
			return slotSpec{}, err
		}
		spec := slotSpec{n: 16, conv: conv, scheduler: "exact", load: 0.9,
			hold: traffic.HoldingTime{Mean: 2}, warm: 512}
		if workload == "cluster-loopback" {
			// One P: the controller and both nodes then hand each RPC
			// over on one thread. With two, every RPC wakes the other
			// vCPU through the hypervisor, and that wake-up's latency,
			// which swings with the load of the shared host, set the
			// slot's tail and throughput (p95 250-440 us across runs
			// against 171-179 us with one P).
			spec.nodes, spec.procs = 2, 1
		}
		return spec, nil
	case "slot-wide":
		// Dense vectors over 256 wavelengths, circular(20,20) so d=41,
		// word-parallel FastBFA, single-slot packets.
		conv, err := wavelength.New(wavelength.Circular, 256, 20, 20)
		if err != nil {
			return slotSpec{}, err
		}
		return slotSpec{n: 8, conv: conv, scheduler: "fast", load: 0.9,
			hold: traffic.HoldingTime{Mean: 1}, warm: 128}, nil
	}
	return slotSpec{}, fmt.Errorf("no slot workload %q", workload)
}

// chunkPackets sizes the input chunks: arrivals are generated a chunk at
// a time between timed loops, never inside one. A chunk (8,192 packets,
// 384 KiB) stays in the core's own cache from its generation to its
// slots; with 64Ki packets (3 MiB) each slot read its arrivals from the
// cache the host's other tenants share: over five interleaved seeds
// slot-wide's scaled p50 spread 13% (interquartile range over median)
// against 10% with the smaller chunk.
const chunkPackets = 1 << 13

// calEvery is the timed-loop time between calibration pieces (calib.go).
const calEvery = int64(10 * time.Millisecond)

// inputs replays a workload's arrivals in chunks. The stream is a
// deterministic function of the seed, so any run can regenerate the
// exact slots another run saw.
type inputs struct {
	gen   traffic.Generator
	next  int // next slot to generate
	chunk int // slots per chunk
	pk    []traffic.Packet
	off   []int
}

func newInputs(spec slotSpec, seed uint64) (*inputs, error) {
	gen, err := traffic.NewBernoulli(traffic.Config{
		N: spec.n, K: spec.conv.K(), Seed: seed, Hold: spec.hold,
	}, spec.load)
	if err != nil {
		return nil, err
	}
	perSlot := float64(spec.n*spec.conv.K()) * spec.load
	chunk := max(1, int(float64(chunkPackets)/perSlot))
	return &inputs{
		gen: gen, chunk: chunk,
		pk:  make([]traffic.Packet, 0, chunkPackets+chunkPackets/4),
		off: make([]int, 0, chunk+1),
	}, nil
}

// fill generates the next slots (at most one chunk) into the buffer.
func (in *inputs) fill(slots int) {
	in.pk, in.off = in.pk[:0], in.off[:0]
	for i := 0; i < slots; i++ {
		in.off = append(in.off, len(in.pk))
		in.pk = in.gen.Generate(in.next, in.pk)
		in.next++
	}
	in.off = append(in.off, len(in.pk))
}

func (in *inputs) slot(i int) []traffic.Packet { return in.pk[in.off[i]:in.off[i+1]] }

// slotRig is one slot engine under test: the switch and, on
// cluster-loopback, the controller and its in-process nodes.
type slotRig struct {
	sw    *interconnect.Switch
	ctrl  *cluster.Controller
	nodes []*cluster.Node
	serve sync.WaitGroup
	errs  chan error
	core  *coreTimer // traced in-process runs only
}

// buildRig builds the engine; with a lane it is the traced variant: the
// scheduler runs behind a span-recording Remote seam.
func buildRig(spec slotSpec, seed uint64, ln *lane) (*slotRig, error) {
	rig := &slotRig{errs: make(chan error, spec.nodes)}
	cfg := interconnect.Config{N: spec.n, Conv: spec.conv, Scheduler: spec.scheduler, Seed: seed}
	if spec.nodes > 0 {
		addrs := make([]string, 0, spec.nodes)
		for i := 0; i < spec.nodes; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				rig.close()
				return nil, err
			}
			node := cluster.NewNode(cluster.NodeConfig{})
			rig.nodes = append(rig.nodes, node)
			rig.serve.Add(1)
			go func() {
				defer rig.serve.Done()
				if err := node.Serve(l); err != nil {
					rig.errs <- err
				}
			}()
			addrs = append(addrs, l.Addr().String())
		}
		ctrl, err := cluster.NewController(cluster.ControllerConfig{
			Addrs: addrs, N: spec.n, Conv: spec.conv, Scheduler: spec.scheduler,
			Seed: seed, DialTimeout: 10 * time.Second,
		})
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.ctrl = ctrl
		cfg.Remote = ctrl
		if ln != nil {
			cfg.Remote = &batchTimer{next: ctrl, lane: ln}
		}
	} else if ln != nil {
		ct, err := newCoreTimer(spec.n, spec.conv, spec.scheduler, ln, false)
		if err != nil {
			return nil, err
		}
		rig.core = ct
		cfg.Remote = ct
	}
	sw, err := interconnect.New(cfg)
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.sw = sw
	return rig, nil
}

// close finalizes the switch and stops the cluster, waiting for every
// node's server loop to return.
func (r *slotRig) close() error {
	if r.sw != nil {
		r.sw.Finalize()
	}
	var errs []error
	if r.ctrl != nil {
		errs = append(errs, r.ctrl.Close())
	}
	for _, n := range r.nodes {
		n.Close()
	}
	r.serve.Wait()
	close(r.errs)
	for err := range r.errs {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// setupRig builds a rig and runs the warm-up slots from in, returning
// the set-up time: engine, listeners, dials and warm-up slots, but not
// the generation of their arrivals.
func setupRig(spec slotSpec, seed uint64, in *inputs, ln *lane) (*slotRig, float64, error) {
	t0 := nowNS()
	rig, err := buildRig(spec, seed, ln)
	if err != nil {
		return nil, 0, err
	}
	setup := nowNS() - t0
	for done := 0; done < spec.warm; {
		n := min(in.chunk, spec.warm-done)
		in.fill(n)
		t0 = nowNS()
		for i := 0; i < n; i++ {
			if err := rig.sw.RunSlot(in.slot(i)); err != nil {
				rig.close()
				return nil, 0, err
			}
		}
		setup += nowNS() - t0
		done += n
	}
	return rig, float64(setup) / 1e9, nil
}

// passStats are the measurements of one timed pass.
type passStats struct {
	slots   int
	slotNS  *samples // each RunSlot, by the pass's clock
	wallNS  int64    // time inside the timed loops
	cpuNS   int64    // process CPU inside the timed loops
	windows []window
}

// timedPass runs slots from in, a chunk at a time, until budget of
// timed-loop time has passed or buf is full, timing every RunSlot with
// clock. buf is allocated by the caller before the heap baseline, so that
// heap_mb does not count it; its capacity bounds the pass. Whole chunks
// group into windows of at least minWindowOps slots; a trailing partial
// window is dropped. With a lane, each slot is a span (the parent of the
// seam's spans) and is timed by the span's wall clock. With a calibrator,
// a calibration piece runs after the first chunk to end calEvery or more
// of timed-loop time after the last piece, outside the chunk's timing,
// and is counted in the chunk's window.
func timedPass(sw *interconnect.Switch, in *inputs, budget time.Duration, clock func() int64, buf *samples, ln *lane, cal *calibrator) (passStats, error) {
	buf.ns = buf.ns[:0]
	ps := passStats{slotNS: buf}
	maxSlots := cap(buf.ns)
	slot := int64(in.next)
	var cur window
	var sinceCal int64
	for ps.slots < maxSlots && ps.wallNS < int64(budget) {
		n := min(in.chunk, maxSlots-ps.slots)
		in.fill(n)
		c0, w0 := cpuNS(), nowNS()
		var t0 int64
		if ln == nil {
			t0 = clock()
		}
		for i := 0; i < n; i++ {
			var err error
			if ln != nil {
				sp := ln.begin(spanRunSlot, slot, -1)
				err = sw.RunSlot(in.slot(i))
				ln.end(sp)
				ps.slotNS.add(ln.spans[sp].end - ln.spans[sp].start)
			} else {
				err = sw.RunSlot(in.slot(i))
				t1 := clock()
				ps.slotNS.add(t1 - t0)
				t0 = t1
			}
			if err != nil {
				return ps, fmt.Errorf("slot %d: %w", slot, err)
			}
			slot++
		}
		w, c := nowNS()-w0, cpuNS()-c0
		var calNS int64
		var calN int
		sinceCal += w
		if cal != nil && sinceCal >= calEvery {
			cal.piece()
			calNS, calN = cal.take()
			sinceCal = 0
		}
		ps.slots += n
		ps.wallNS += w
		ps.cpuNS += c
		if n == in.chunk {
			cur.ops += n
			cur.wallNS += w
			cur.cpuNS += c
			cur.calNS += calNS
			cur.calN += calN
			if cur.ops >= minWindowOps {
				cur.hi = ps.slots
				ps.windows = append(ps.windows, cur)
				cur = window{lo: ps.slots}
			}
		}
	}
	if len(ps.windows) == 0 && ps.slots > 0 {
		ps.windows = []window{{ops: ps.slots, wallNS: ps.wallNS, cpuNS: ps.cpuNS, lo: 0, hi: ps.slots}}
	}
	return ps, nil
}

// referenceStats runs the first slots of the seed's arrivals through the
// untimed reference: the sequential engine with the scalar exact
// scheduler and every slot's grants routed through the Fig. 1 datapath
// model (ValidateFabric).
func referenceStats(spec slotSpec, seed uint64, slots int) (*interconnect.Stats, error) {
	sw, err := interconnect.New(interconnect.Config{
		N: spec.n, Conv: spec.conv, Scheduler: "exact", Seed: seed, ValidateFabric: true,
	})
	if err != nil {
		return nil, err
	}
	in, err := newInputs(spec, seed)
	if err != nil {
		return nil, err
	}
	for done := 0; done < slots; {
		n := min(in.chunk, slots-done)
		in.fill(n)
		for i := 0; i < n; i++ {
			if err := sw.RunSlot(in.slot(i)); err != nil {
				return nil, fmt.Errorf("reference slot %d: %w", done+i, err)
			}
		}
		done += n
	}
	return sw.Finalize(), nil
}

// compareStats compares every traffic-level statistic of two runs, field
// by field, returning the first difference.
func compareStats(a, b *interconnect.Stats) error {
	type field struct {
		name string
		x, y int64
	}
	fields := []field{
		{"slots", int64(a.Slots), int64(b.Slots)},
		{"offered", a.Offered.Value(), b.Offered.Value()},
		{"granted", a.Granted.Value(), b.Granted.Value()},
		{"input-blocked", a.InputBlocked.Value(), b.InputBlocked.Value()},
		{"output-dropped", a.OutputDropped.Value(), b.OutputDropped.Value()},
		{"preempted", a.Preempted.Value(), b.Preempted.Value()},
		{"busy-channel-slots", a.BusyChannelSlots.Value(), b.BusyChannelSlots.Value()},
		{"per-input length", int64(len(a.PerInputGranted)), int64(len(b.PerInputGranted))},
		{"per-channel length", int64(len(a.PerChannelBusy)), int64(len(b.PerChannelBusy))},
		{"per-class length", int64(len(a.PerClassGranted)), int64(len(b.PerClassGranted))},
		{"fault stats", boolInt(a.Fault != nil), boolInt(b.Fault != nil)},
	}
	for _, f := range fields {
		if f.x != f.y {
			return fmt.Errorf("stats differ: %s %d vs %d", f.name, f.x, f.y)
		}
	}
	for i := range a.PerInputGranted {
		if a.PerInputGranted[i] != b.PerInputGranted[i] {
			return fmt.Errorf("stats differ: per-input[%d] %d vs %d", i, a.PerInputGranted[i], b.PerInputGranted[i])
		}
	}
	for i := range a.PerChannelBusy {
		if a.PerChannelBusy[i] != b.PerChannelBusy[i] {
			return fmt.Errorf("stats differ: per-channel[%d] %d vs %d", i, a.PerChannelBusy[i], b.PerChannelBusy[i])
		}
	}
	for i := range a.PerClassGranted {
		if a.PerClassGranted[i] != b.PerClassGranted[i] || a.PerClassOffered[i] != b.PerClassOffered[i] {
			return fmt.Errorf("stats differ: per-class[%d]", i)
		}
	}
	for v := 0; v <= a.MatchSizes.Max(); v++ {
		if a.MatchSizes.Bucket(v) != b.MatchSizes.Bucket(v) {
			return fmt.Errorf("stats differ: match-size histogram at %d: %d vs %d", v, a.MatchSizes.Bucket(v), b.MatchSizes.Bucket(v))
		}
	}
	if a.MatchSizes.Overflow() != b.MatchSizes.Overflow() {
		return errors.New("stats differ: match-size overflow")
	}
	if a.Fault != nil && (a.Fault.LostGrants.Value() != b.Fault.LostGrants.Value() ||
		a.Fault.KilledConnections.Value() != b.Fault.KilledConnections.Value()) {
		return errors.New("stats differ: fault accounting")
	}
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// finish checks the switch's counter partition, finalizes it and
// compares its Stats field by field with want, or, when want is nil,
// with the reference run of the same slots.
func finish(rig *slotRig, spec slotSpec, seed uint64, want *interconnect.Stats) (*interconnect.Stats, error) {
	var snap interconnect.Snapshot
	rig.sw.Snapshot(&snap)
	stats := rig.sw.Finalize()
	if err := rig.close(); err != nil {
		return nil, fmt.Errorf("engine teardown: %w", err)
	}
	if msg := snap.Conserved(); msg != "" {
		return nil, fmt.Errorf("counters not conserved: %s", msg)
	}
	if want == nil {
		ref, err := referenceStats(spec, seed, stats.Slots)
		if err != nil {
			return nil, err
		}
		if err := compareStats(stats, ref); err != nil {
			return nil, fmt.Errorf("run vs reference: %w", err)
		}
		return stats, nil
	}
	if err := compareStats(stats, want); err != nil {
		return nil, fmt.Errorf("traced vs untraced run: %w", err)
	}
	return stats, nil
}

// slotCapacity bounds the slots of one pass so sample buffers can be
// allocated before the heap baseline is taken.
func slotCapacity(seconds float64) int { return int(seconds*200000) + 1024 }

// setupRuns is how many times set-up is repeated; setup_s is the median.
const setupRuns = 9

func runSlotWorkload(opt options, rep *report) error {
	spec, err := slotSpecFor(opt.workload)
	if err != nil {
		return err
	}
	if spec.procs > 0 {
		runtime.GOMAXPROCS(spec.procs)
	}
	if spec.nodes == 0 {
		// The slot clock reads this thread's CPU time.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	if opt.trace {
		return traceSlotWorkload(opt, spec, rep)
	}
	// Each set-up sits between two calibration pieces and is scaled by
	// them, like the timed windows.
	cal := newCalibrator()
	var setups []float64
	for i := 0; i < setupRuns-1; i++ {
		in, err := newInputs(spec, opt.seed)
		if err != nil {
			return err
		}
		cal.piece()
		rig, s, err := setupRig(spec, opt.seed, in, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		cal.piece()
		setups = append(setups, s*cal.factor())
		if err := rig.close(); err != nil {
			return fmt.Errorf("set-up teardown: %w", err)
		}
	}
	in, err := newInputs(spec, opt.seed)
	if err != nil {
		return err
	}
	buf := newSamples(slotCapacity(opt.seconds))
	heap := newLiveHeap()
	cal.piece()
	rig, s, err := setupRig(spec, opt.seed, in, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	cal.piece()
	setups = append(setups, s*cal.factor())
	runtime.GC()
	ps, err := timedPass(rig.sw, in, runDeadline(opt.seconds), spec.clock(), buf, nil, cal)
	heap.finish()
	// The inputs and the calibrator were allocated before the baseline;
	// they must still be live at the end reading, or heap_mb would lose
	// their size.
	runtime.KeepAlive(in)
	runtime.KeepAlive(cal)
	rep.attempted = int64(spec.warm + ps.slots)
	if err != nil {
		rig.close()
		rep.failed = 1
		return err
	}
	stats, err := finish(rig, spec, opt.seed, nil)
	if err != nil {
		return err
	}
	ws := summarize(ps.windows, ps.slotNS.ns)
	n := int64(ps.slots)
	per := fmt.Sprintf("median of %d windows of >=%d slots, scaled to the reference host", ws.windows, minWindowOps)
	what := "RunSlot thread CPU time"
	if spec.nodes > 0 {
		what = "RunSlot wall time"
	}
	rep.set("setup_s", median(setups), int64(len(setups)), "median set-up: engine build, listen+dial, warm-up slots; scaled to the reference host")
	rep.set("ops_per_s", ws.opsPerS, n, "slots per wall second, closed loop; "+per)
	rep.set("latency_p50_us", ws.p50NS/1e3, n, what+" p50; "+per)
	rep.set("latency_p95_us", ws.p95NS/1e3, n, what+" p95; "+per)
	rep.set("granted_ratio", float64(stats.Granted.Value())/float64(stats.Offered.Value()), stats.Offered.Value(), "granted / offered packets")
	rep.set("cpu_us_per_op", ws.cpuNSPerOp/1e3, n, "process CPU per slot; "+per)
	rep.set("heap_mb", heap.mb(), 1, "live heap after the timed loops above the pre-set-up baseline")
	rep.note("p99 %.1f us (%s)", ws.p99NS/1e3, per)
	rep.note("host slowdown %.3f (median piece time / %d ns); the times above are divided by it", ws.slowdown, calNominalNS)
	rep.note("whole run, unscaled: %.1f slots/s; %s p50 %.1f us, p99 %.1f us, max %.1f us; %.2f us process CPU/slot",
		float64(ps.slots)/(float64(ps.wallNS)/1e9), what, ps.slotNS.quantile(0.5)/1e3, ps.slotNS.quantile(0.99)/1e3,
		ps.slotNS.quantile(1)/1e3, float64(ps.cpuNS)/1e3/float64(ps.slots))
	rep.note("reference check: %d slots field-identical to the scalar exact run with ValidateFabric", stats.Slots)
	return nil
}
