package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wdmsched/internal/grant"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// grant-loopback drives an in-process grant.Service over loopback TCP.
// The untraced run keeps a fixed number of requests in flight (closed
// loop, saturating the service); the traced run adds an open-loop Poisson
// phase whose requests are timed from their due times.
const (
	grantN      = 16
	grantK      = 16
	grantConns  = 2
	grantTenant = "perfbench"
	// inFlight is the closed loop's request count in flight, over both
	// connections: enough to keep the service saturated through a late
	// generator wake-up, far below the tenant's queue limit, so
	// admission never pushes back.
	inFlight = 512
	// closedWindow is the request count of one closed-loop window.
	closedWindow = 40000
	// phaseARate is the traced run's open-loop load, about a fiftieth of
	// the service's capacity.
	phaseARate     = 10000
	grantWarm      = 2000 // warm-up requests inside set-up
	grantSetupRuns = 15
	phaseABase     = 1 << 32 // Phase A request IDs start here, after the warm-up's
	holdMean       = 2       // geometric request duration mean, slots
	// maxSend caps the requests one generator wake-up hands to a
	// connection in one frame.
	maxSend = 4096
	// closedPoll is the closed loop's wait for verdicts to free room.
	closedPoll = 20_000 // ns
	// drainTimeout bounds the wait for outstanding verdicts.
	drainTimeout = 60 * time.Second
)

// grantShape is the service's switch: the slot-uniform shape.
func grantShape(seed uint64) (interconnect.Config, error) {
	conv, err := wavelength.NewSymmetric(wavelength.Circular, grantK, 3)
	if err != nil {
		return interconnect.Config{}, err
	}
	return interconnect.Config{N: grantN, Conv: conv, Scheduler: "exact", Seed: seed}, nil
}

// grantPolicy admits everything at the rates the benchmark offers, so
// admission never pushes back below the service's own saturation.
var grantPolicy = grant.Policy{Rate: 1e9, Burst: 1e6, Queue: 65536}

// phase is one open-loop schedule and what became of each request. The
// generator writes sentAt; each connection's reader writes the verdict
// slots of the requests it carries; received orders those writes before
// the analysis.
type phase struct {
	base    uint64  // ID of request 0
	limit   int64   // > 0: a closed loop with at most limit requests in flight
	due     []int64 // due time, ns after the phase starts
	reqs    []grant.Req
	start   int64   // phase start on the bench clock
	dueAt   []int64 // due time on the bench clock
	sentAt  []int64 // when the request's Submit began
	recvAt  []int64 // when its verdict arrived
	verdict []grant.Verdict
	// Benchmark buffers, allocated with the schedule, before the heap
	// baseline, so that heap_mb counts only the program's own growth.
	submit            *samples // one duration per Submit call
	lat, lag, settled *samples // filled by the analysis after the last verdict

	received atomic.Int64
	strays   atomic.Int64 // verdicts for unknown or already-answered IDs
}

// newSchedule draws a Poisson schedule of the given rate and length, with
// uniform request fields and geometric durations.
func newSchedule(seed uint64, base uint64, rate float64, length time.Duration) *phase {
	rng := traffic.NewRNG(seed)
	expect := int(rate*length.Seconds()*1.1) + 16
	ph := &phase{base: base, due: make([]int64, 0, expect), reqs: make([]grant.Req, 0, expect)}
	t := 0.0
	for {
		t += rng.Exp(rate)
		if t >= length.Seconds() {
			break
		}
		ph.due = append(ph.due, int64(t*1e9))
		ph.reqs = append(ph.reqs, drawReq(rng, base+uint64(len(ph.reqs))))
	}
	ph.alloc()
	return ph
}

// newClosedBatch allocates a closed-loop phase of n requests, all due at
// once, of which at most limit are in flight; refill draws its requests.
func newClosedBatch(n int, limit int64) *phase {
	ph := &phase{due: make([]int64, n), reqs: make([]grant.Req, n), limit: limit}
	ph.alloc()
	return ph
}

// refill draws a closed-loop batch's requests afresh, numbered from base,
// and clears what became of the previous ones. No request of ph may be in
// flight.
func (ph *phase) refill(seed, base uint64) {
	rng := traffic.NewRNG(seed)
	ph.base = base
	for i := range ph.reqs {
		ph.reqs[i] = drawReq(rng, base+uint64(i))
	}
	clear(ph.verdict)
	for _, s := range []*samples{ph.submit, ph.lat, ph.lag, ph.settled} {
		s.ns = s.ns[:0]
	}
	ph.received.Store(0)
	ph.strays.Store(0)
}

func drawReq(rng *traffic.RNG, id uint64) grant.Req {
	dur := min(rng.Geometric(holdMean), 1<<15)
	return grant.Req{
		ID:   id,
		In:   uint32(rng.Intn(grantN)),
		Wave: uint16(rng.Intn(grantK)),
		Dest: uint32(rng.Intn(grantN)),
		Dur:  uint16(dur),
	}
}

// alloc allocates the per-request records and sample buffers.
func (ph *phase) alloc() {
	m := len(ph.due)
	ph.dueAt = make([]int64, m)
	ph.sentAt = make([]int64, m)
	ph.recvAt = make([]int64, m)
	ph.verdict = make([]grant.Verdict, m)
	ph.submit = newSamples(m)
	ph.lat, ph.lag, ph.settled = newSamples(m), newSamples(m), newSamples(m)
}

// conn is one client session and the client-side tally of its verdicts.
// The tally fields belong to the reader goroutine until it exits.
type conn struct {
	c                                  *grant.Client
	sent                               uint64 // generator goroutine only
	granted, rejected, rejAdm, retried uint64
	ledger                             *grant.Ledger
	err                                error
}

// grantRig is a running service with its client connections.
type grantRig struct {
	svc     *grant.Service
	served  chan error
	conns   []*conn
	readers sync.WaitGroup
	cur     atomic.Pointer[phase]
	broken  atomic.Bool // a reader failed before its session ledger
	nextID  uint64

	// Traced rigs only.
	reg  *telemetry.Registry
	core *coreTimer
}

// startGrant builds the service, listens on loopback, dials the client
// connections and starts their readers. With a lane the engine runs the
// scheduler behind the span-recording Remote seam and the service
// exposes its telemetry registry.
func startGrant(seed uint64, ln *lane) (*grantRig, error) {
	sw, err := grantShape(seed)
	if err != nil {
		return nil, err
	}
	g := &grantRig{served: make(chan error, 1)}
	cfg := grant.Config{Switch: sw, Default: grantPolicy, Tool: "perfbench"}
	if ln != nil {
		ct, err := newCoreTimer(sw.N, sw.Conv, sw.Scheduler, ln, true)
		if err != nil {
			return nil, err
		}
		g.core = ct
		g.reg = telemetry.NewRegistry()
		cfg.Switch.Remote = ct
		cfg.Telemetry = g.reg
	}
	svc, err := grant.NewService(cfg)
	if err != nil {
		return nil, err
	}
	g.svc = svc
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { g.served <- svc.Serve(l) }()
	for i := 0; i < grantConns; i++ {
		c, err := grant.Dial(l.Addr().String(), grantTenant)
		if err != nil {
			g.abort()
			return nil, err
		}
		cs := &conn{c: c}
		g.conns = append(g.conns, cs)
		g.readers.Add(1)
		go g.read(cs)
	}
	return g, nil
}

// read records every verdict of one connection until the session ledger
// arrives or the connection fails.
func (g *grantRig) read(cs *conn) {
	defer g.readers.Done()
	for {
		ev, err := cs.c.Recv()
		if err != nil {
			cs.err = err
			g.broken.Store(true)
			return
		}
		if ev.Ledger != nil {
			l := *ev.Ledger
			cs.ledger = &l
			return
		}
		now := nowNS()
		ph := g.cur.Load()
		var ok int64
		for _, nt := range ev.Notices {
			i := nt.ID - ph.base
			if nt.ID < ph.base || i >= uint64(len(ph.due)) || ph.verdict[i] != 0 || nt.Verdict == 0 {
				ph.strays.Add(1)
				continue
			}
			ph.verdict[i] = nt.Verdict
			ph.recvAt[i] = now
			switch nt.Verdict {
			case grant.VerdictGranted:
				cs.granted++
			case grant.VerdictRejected:
				cs.rejected++
			case grant.VerdictRejectedAdmission:
				cs.rejected++
				cs.rejAdm++
			default:
				cs.retried++
			}
			ok++
		}
		ph.received.Add(ok)
	}
}

// phaseStats summarizes one phase.
type phaseStats struct {
	n                         int
	lat, lag, settled, submit *samples
	granted, retried, rejAdm  int
	sendNS, wallNS, cpuNS     int64 // start→last send, start→last verdict, CPU over wallNS
}

// runPhase sends ph on its schedule, waits for every verdict and
// summarizes. With a lane it records a span per Submit call.
func (g *grantRig) runPhase(ph *phase, ln *lane) (phaseStats, error) {
	st := phaseStats{n: len(ph.due), submit: ph.submit}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	g.cur.Store(ph)
	var batch [grantConns][]grant.Req
	c0 := cpuNS()
	ph.start = nowNS()
	var sent int64
	for i := 0; i < len(ph.due); {
		now := nowNS() - ph.start
		if d := ph.due[i] - now; d > 0 {
			sleepNS(d)
			continue
		}
		room := maxSend
		if ph.limit > 0 {
			// Top the closed loop up once an eighth of it has returned.
			room = min(room, int(ph.limit-(sent-ph.received.Load())))
			if room < int(ph.limit/8) {
				sleepNS(closedPoll)
				continue
			}
		}
		j := i
		for j < len(ph.due) && ph.due[j] <= now && j-i < room {
			j++
		}
		for c := range batch {
			batch[c] = batch[c][:0]
		}
		for r := i; r < j; r++ {
			batch[r%grantConns] = append(batch[r%grantConns], ph.reqs[r])
			due := ph.due[r]
			if ph.limit > 0 {
				due = now // a closed-loop request is due when it fits
			}
			ph.dueAt[r] = ph.start + due
		}
		for c, cs := range g.conns {
			if len(batch[c]) == 0 {
				continue
			}
			t0 := nowNS()
			for r := i + (c-i%grantConns+grantConns)%grantConns; r < j; r += grantConns {
				ph.sentAt[r] = t0
			}
			if err := cs.c.Submit(batch[c]); err != nil {
				return st, fmt.Errorf("submit: %w", err)
			}
			t1 := nowNS()
			st.submit.add(t1 - t0)
			if ln != nil {
				ln.record(spanSubmit, int64(batch[c][0].ID), int32(c), t0, t1)
			}
			cs.sent += uint64(len(batch[c]))
		}
		sent += int64(j - i)
		i = j
	}
	st.sendNS = nowNS() - ph.start
	if err := g.await(ph, sent, nowNS()+int64(drainTimeout)); err != nil {
		return st, err
	}
	last := int64(0)
	for _, t := range ph.recvAt {
		last = max(last, t)
	}
	st.wallNS = max(last-ph.start, st.sendNS)
	st.cpuNS = cpuNS() - c0
	if n := ph.strays.Load(); n > 0 {
		return st, fmt.Errorf("%d verdicts for unknown or already-answered requests", n)
	}
	st.lat, st.lag, st.settled = ph.lat, ph.lag, ph.settled
	for i, v := range ph.verdict {
		due := ph.dueAt[i]
		st.lat.add(ph.recvAt[i] - due)
		st.lag.add(ph.sentAt[i] - due)
		switch v {
		case grant.VerdictGranted:
			st.granted++
			st.settled.add(ph.recvAt[i] - ph.sentAt[i])
		case grant.VerdictRejected:
			st.settled.add(ph.recvAt[i] - ph.sentAt[i])
		case grant.VerdictRejectedAdmission:
			st.rejAdm++
		default:
			st.retried++
		}
	}
	return st, nil
}

// await waits until n verdicts of ph have arrived, failing at deadline
// (bench clock) or when a client connection fails.
func (g *grantRig) await(ph *phase, n int64, deadline int64) error {
	for ph.received.Load() < n {
		if nowNS() > deadline {
			return fmt.Errorf("%d of %d verdicts missing after %v", n-ph.received.Load(), n, drainTimeout)
		}
		if g.broken.Load() {
			return errors.New("a client connection failed mid-phase")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// warm runs the set-up warm-up batch.
func (g *grantRig) warm(ph *phase) error {
	st, err := g.runPhase(ph, nil)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if st.retried+st.rejAdm > 0 {
		return fmt.Errorf("warm-up: %d requests pushed back", st.retried+st.rejAdm)
	}
	return nil
}

// schedule draws the next schedule, numbering its requests after every
// earlier one.
func (g *grantRig) schedule(seed uint64, rate float64, length time.Duration) *phase {
	ph := newSchedule(seed, g.nextID, rate, length)
	g.nextID += uint64(len(ph.due))
	return ph
}

// abort tears the rig down after a failure, without checks.
func (g *grantRig) abort() {
	for _, cs := range g.conns {
		cs.c.Close()
	}
	g.svc.Close()
	g.readers.Wait()
	<-g.served
}

// close ends every session with Bye, drains the service and checks the
// books: each session ledger balances and equals its client tally, the
// session ledgers sum to the service ledger, Serve returns cleanly and
// no invariant violation was recorded.
func (g *grantRig) close() error {
	for _, cs := range g.conns {
		if err := cs.c.Bye(); err != nil {
			g.abort()
			return fmt.Errorf("bye: %w", err)
		}
	}
	done := make(chan struct{})
	go func() { g.readers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		g.abort()
		return errors.New("session ledgers did not arrive")
	}
	g.svc.Drain()
	var serveErr error
	select {
	case serveErr = <-g.served:
	case <-time.After(drainTimeout):
		g.svc.Close()
		serveErr = errors.New("service did not finish draining")
	}
	var sum grant.Ledger
	var errs []error
	for i, cs := range g.conns {
		cs.c.Close()
		if cs.ledger == nil {
			errs = append(errs, fmt.Errorf("session %d ended without a ledger: %v", i, cs.err))
			continue
		}
		l := *cs.ledger
		want := grant.Ledger{
			Submitted: cs.sent, Admitted: cs.granted + cs.rejected - cs.rejAdm,
			Granted: cs.granted, Rejected: cs.rejected, Retried: cs.retried,
		}
		if !l.Balanced() || l != want {
			errs = append(errs, fmt.Errorf("session %d ledger %+v, client tally %+v", i, l, want))
		}
		sum.Submitted += l.Submitted
		sum.Admitted += l.Admitted
		sum.Granted += l.Granted
		sum.Rejected += l.Rejected
		sum.Retried += l.Retried
	}
	if l := g.svc.Ledger(); l != sum {
		errs = append(errs, fmt.Errorf("service ledger %+v != sum of session ledgers %+v", l, sum))
	}
	if serveErr != nil {
		errs = append(errs, fmt.Errorf("serve: %w", serveErr))
	}
	if inc := g.svc.Incident(); inc != nil {
		errs = append(errs, fmt.Errorf("invariant violation %s at slot %d: %s", inc.Invariant, inc.Slot, inc.Detail))
	}
	return errors.Join(errs...)
}

// setupGrant times one set-up: service, listener, dials and a closed-loop
// warm-up. The warm-up requests are drawn before the clock starts.
func setupGrant(seed uint64, ln *lane) (*grantRig, float64, error) {
	warm := newClosedBatch(grantWarm, inFlight)
	warm.refill(seed^0x7761726d, 0)
	t0 := nowNS()
	g, err := startGrant(seed, ln)
	if err != nil {
		return nil, 0, err
	}
	g.nextID = uint64(len(warm.due))
	if err := g.warm(warm); err != nil {
		g.abort()
		return nil, 0, err
	}
	return g, float64(nowNS()-t0) / 1e9, nil
}

// grantCalPerWindow is the number of calibration pieces run before each
// closed-loop window, with the service idle.
const grantCalPerWindow = 2

func runGrantWorkload(opt options, rep *report) error {
	if opt.trace {
		return traceGrantWorkload(opt, rep)
	}
	// Each set-up sits between two calibration pieces and is scaled by
	// them, like the timed windows.
	cal := newCalibrator()
	var setups []float64
	for i := 0; i < grantSetupRuns-1; i++ {
		cal.piece()
		g, s, err := setupGrant(opt.seed, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		cal.piece()
		setups = append(setups, s*cal.factor())
		if err := g.close(); err != nil {
			return fmt.Errorf("set-up teardown: %w", err)
		}
	}
	batch := newClosedBatch(closedWindow, inFlight)
	vals := make([]windowVals, 0, int(opt.seconds*100)+16)
	heap := newLiveHeap()
	cal.piece()
	g, s, err := setupGrant(opt.seed, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	cal.piece()
	setups = append(setups, s*cal.factor())
	runtime.GC()
	gc0 := gcCycles()
	var granted, retried, rejAdm int
	var wall int64
	for k := uint64(0); wall < int64(runDeadline(opt.seconds)); k++ {
		batch.refill(opt.seed*1000003+k, g.nextID)
		g.nextID += closedWindow
		for p := 0; p < grantCalPerWindow; p++ {
			cal.piece()
		}
		calNS, calN := cal.take()
		st, err := g.runPhase(batch, nil)
		rep.attempted += int64(st.n)
		if err != nil {
			g.abort()
			return fmt.Errorf("closed loop: %w", err)
		}
		w := window{ops: st.n, wallNS: st.wallNS, cpuNS: st.cpuNS, lo: 0, hi: st.n, calNS: calNS, calN: calN}
		vals = append(vals, windowValues(w, st.lat.ns))
		granted += st.granted
		retried += st.retried
		rejAdm += st.rejAdm
		wall += st.wallNS
	}
	gcs := gcCycles() - gc0
	heap.finish()
	// Allocated before the baseline, as in the slot workloads.
	runtime.KeepAlive(batch)
	runtime.KeepAlive(cal)
	runtime.KeepAlive(vals)
	rep.failed = int64(retried + rejAdm)
	if err := g.close(); err != nil {
		return err
	}
	if rep.failed > 0 {
		return fmt.Errorf("admission pushed back %d requests (%d RETRY)", rep.failed, retried)
	}

	ws := medianOver(vals)
	per := fmt.Sprintf("median of %d windows of %d requests, scaled to the reference host", ws.windows, closedWindow)
	n := rep.attempted
	rep.set("setup_s", median(setups), int64(len(setups)), "median set-up: service, listen, 2 dials, warm-up; scaled to the reference host")
	rep.set("ops_per_s", ws.opsPerS, n, fmt.Sprintf("verdicts per wall second, closed loop of %d in flight; %s", inFlight, per))
	rep.set("latency_p50_us", ws.p50NS/1e3, n, "Submit->verdict p50; "+per)
	rep.set("latency_p95_us", ws.p95NS/1e3, n, "Submit->verdict p95; "+per)
	rep.set("granted_ratio", float64(granted)/float64(n), n, "granted / submitted")
	rep.set("cpu_us_per_op", ws.cpuNSPerOp/1e3, n, "process CPU per request; "+per)
	rep.set("heap_mb", heap.mb(), 1, "live heap after the closed loop above the pre-set-up baseline")
	rep.note("p99 %.1f us (%s)", ws.p99NS/1e3, per)
	rep.note("host slowdown %.3f (median piece time / %d ns); the times above are divided by it", ws.slowdown, calNominalNS)
	rep.note("whole run, unscaled: %d requests in %.2fs of windows, %.0f/s, %d GC cycles",
		n, float64(wall)/1e9, float64(n)/(float64(wall)/1e9), gcs)
	rep.note("ledger check: sessions balance, equal client tallies and sum to the service ledger; no incident")
	return nil
}

// traceGrantWorkload runs Phase A twice on one schedule: untraced, then
// with the Remote seam, Submit spans and the telemetry registry, and
// reports the grant path's per-layer metrics from the traced pass.
func traceGrantWorkload(opt options, rep *report) error {
	lenA := time.Duration(0.5 * float64(runDeadline(opt.seconds)))
	phA := newSchedule(opt.seed, phaseABase, phaseARate, lenA)

	g, _, err := setupGrant(opt.seed, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	g.nextID = phA.base + uint64(len(phA.due))
	runtime.GC()
	u, err := g.runPhase(phA, nil)
	rep.attempted = int64(u.n)
	if err != nil {
		g.abort()
		return fmt.Errorf("untraced phase A: %w", err)
	}
	if err := g.close(); err != nil {
		return err
	}

	gen := newLane("generator", len(phA.due))
	round := newLane("round loop", 16*len(phA.due))
	reqs := newLane("requests", len(phA.due))
	phT := newSchedule(opt.seed, phaseABase, phaseARate, lenA)
	g, _, err = setupGrant(opt.seed, round)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	g.core.reset()
	stage0Sum, stage0N := grantStages(g.reg)
	g.nextID = phT.base + uint64(len(phT.due))
	slots0, led0 := g.svc.Slots(), g.svc.Ledger()
	runtime.GC()
	t, err := g.runPhase(phT, gen)
	rep.attempted += int64(t.n)
	if err != nil {
		g.abort()
		return fmt.Errorf("traced phase A: %w", err)
	}
	slots1, led1 := g.svc.Slots(), g.svc.Ledger()
	for i := range phT.due {
		reqs.record(spanRequest, int64(phT.reqs[i].ID), int32(i%grantConns), phT.dueAt[i], phT.recvAt[i])
	}
	if err := g.close(); err != nil {
		return err
	}
	rep.failed = int64(u.retried + u.rejAdm + t.retried + t.rejAdm)

	// Stage means from wdm_grant_stage_seconds over phase A alone: read
	// after Drain, less the warm-up's share.
	stageSum, stageN := grantStages(g.reg)
	var stageTotal float64
	for i, name := range telemetry.GrantStageNames {
		n := stageN[name] - stage0N[name]
		mean := 0.0
		if n > 0 {
			mean = (stageSum[name] - stage0Sum[name]) / float64(n) * 1e6
		}
		stageTotal += mean
		rep.set("grant.stage."+grantStageMetric[i]+"_us", mean, n, "wdm_grant_stage_seconds "+name+" mean")
	}

	rows := selfTimes([]*lane{gen, round, reqs})
	rounds := float64(slots1 - slots0)
	coreNS := float64(rows[spanSchedule].total)
	calls := round.durations(spanSchedule)
	dispatched := float64(led1.Admitted - led0.Admitted)
	rep.set("core.busy_us_per_slot", coreNS/rounds/1e3, calls.n(), "Σ core.Schedule per engine round")
	rep.set("core.share", ratio(coreNS, float64(t.cpuNS)), calls.n(), "core time / process CPU over the phase")
	rep.set("core.call_p50_ns", calls.quantile(0.50), calls.n(), "one Schedule call, p50")
	rep.set("core.call_p99_ns", calls.quantile(0.99), calls.n(), "one Schedule call, p99")
	rep.set("core.calls_per_slot", float64(calls.n())/rounds, calls.n(), "non-empty ports scheduled per round")
	rep.set("core.match_ratio", ratio(float64(g.core.matched), float64(g.core.requested)), g.core.requested, "matched / requested")
	rep.set("interconnect.arrivals_per_slot", dispatched/rounds, int64(rounds), "requests dispatched per engine round")
	rep.set("grant.submit_us_p50", t.submit.quantile(0.50)/1e3, t.submit.n(), "client Submit call p50")
	rep.set("grant.unattributed_us", t.settled.mean()/1e3-stageTotal, t.settled.n(), "client settled mean minus server stage sum")
	rep.set("grant.core_us_per_round", coreNS/float64(g.core.batches)/1e3, g.core.batches, "core time per engine round")
	rep.set("grant.batch_size", dispatched/rounds, int64(rounds), "requests dispatched per round")
	rep.set("grant.rounds_per_s", rounds/(float64(t.wallNS)/1e9), int64(rounds), "engine rounds per second in phase A")
	rep.set("grant.retry_ratio", ratio(float64(led1.Retried-led0.Retried), float64(led1.Submitted-led0.Submitted)), int64(led1.Submitted-led0.Submitted), "RETRY verdicts / submitted")
	rep.set("loadgen.lag_p99_us", t.lag.quantile(0.99)/1e3, t.lag.n(), "generator lateness p99, send minus due")
	rep.set("trace.overhead_ratio", ratio(float64(t.cpuNS)/float64(t.n), float64(u.cpuNS)/float64(u.n)), int64(t.n), "CPU per request, traced / untraced")
	rep.note("phase A untraced p50 %.1f us p99 %.1f us; traced p50 %.1f us p99 %.1f us",
		u.lat.quantile(0.5)/1e3, u.lat.quantile(0.99)/1e3, t.lat.quantile(0.5)/1e3, t.lat.quantile(0.99)/1e3)
	writeSelfTable(opt.out, rows, int64(rounds))
	path, err := writeTrace(opt.traceDir, opt.workload, []*lane{gen, round, reqs}, rows, int64(rounds))
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	rep.note("trace: %s (%d spans)", path, len(gen.spans)+len(round.spans)+len(reqs.spans))
	return nil
}

// grantStages reads the sum (seconds) and count of each stage of
// wdm_grant_stage_seconds.
func grantStages(reg *telemetry.Registry) (map[string]float64, map[string]int64) {
	sum, n := map[string]float64{}, map[string]int64{}
	for _, m := range reg.Snapshot() {
		if m.Name != "wdm_grant_stage_seconds" {
			continue
		}
		for _, l := range m.Labels {
			if l.Key == "stage" {
				sum[l.Value], n[l.Value] = m.Sum, m.Count
			}
		}
	}
	return sum, n
}

// grantStageMetric names the per-layer metric of each grant stage, in
// telemetry.GrantStageNames order.
var grantStageMetric = [telemetry.NumGrantStages]string{
	"ingest", "admission", "queue_wait", "round_batch", "engine_schedule", "egress_write",
}

// sleepNS blocks the calling OS thread in the kernel for ns. Go's
// time.Sleep rounds sub-millisecond sleeps up to a millisecond whenever
// the runtime parks in its network poller, so the generator's lateness
// would swing with the load on the other goroutines; a locked thread in
// nanosleep wakes on the kernel's high-resolution timer instead.
func sleepNS(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
