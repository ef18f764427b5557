package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"wdmsched/internal/core"
	"wdmsched/internal/interconnect"
)

// dropOne forwards to a batch scheduler and then removes one grant from
// the first non-empty result of slot at: a scheduler bug the slot check
// must catch.
type dropOne struct {
	next    interconnect.BatchScheduler
	at      int64
	dropped bool
}

func (d *dropOne) ScheduleBatch(slot int64, reqs []interconnect.BatchRequest, out []interconnect.BatchResult) error {
	if err := d.next.ScheduleBatch(slot, reqs, out); err != nil {
		return err
	}
	if slot != d.at || d.dropped {
		return nil
	}
	for i := range out {
		res := out[i].Res
		for b, w := range res.ByOutput {
			if w != core.Unassigned {
				res.ByOutput[b] = core.Unassigned
				res.Granted[w]--
				res.Size--
				d.dropped = true
				return nil
			}
		}
	}
	return nil
}

// runWithRemote runs the first slots of the workload's arrivals through a
// switch whose scheduling goes through remote, and checks the result with
// the benchmark's own slot check.
func runWithRemote(t *testing.T, spec slotSpec, seed uint64, slots int, remote func(*coreTimer) interconnect.BatchScheduler) error {
	t.Helper()
	ct, err := newCoreTimer(spec.n, spec.conv, spec.scheduler, newLane("test", 0), false)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := interconnect.New(interconnect.Config{
		N: spec.n, Conv: spec.conv, Scheduler: spec.scheduler, Seed: seed, Remote: remote(ct),
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInputs(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	for done := 0; done < slots; {
		n := min(in.chunk, slots-done)
		in.fill(n)
		for i := 0; i < n; i++ {
			if err := sw.RunSlot(in.slot(i)); err != nil {
				t.Fatal(err)
			}
		}
		done += n
	}
	_, err = finish(&slotRig{sw: sw, errs: make(chan error)}, spec, seed, nil)
	return err
}

func TestSlotCheckCatchesDroppedGrant(t *testing.T) {
	for _, workload := range []string{"slot-uniform", "slot-wide"} {
		t.Run(workload, func(t *testing.T) {
			spec, err := slotSpecFor(workload)
			if err != nil {
				t.Fatal(err)
			}
			if err := runWithRemote(t, spec, 7, 300, func(ct *coreTimer) interconnect.BatchScheduler { return ct }); err != nil {
				t.Fatalf("faithful scheduler failed the check: %v", err)
			}
			drop := &dropOne{at: 150}
			err = runWithRemote(t, spec, 7, 300, func(ct *coreTimer) interconnect.BatchScheduler {
				drop.next = ct
				return drop
			})
			if !drop.dropped {
				t.Fatal("no grant was dropped")
			}
			if err == nil || !strings.Contains(err.Error(), "run vs reference") {
				t.Fatalf("dropped grant passed the check: %v", err)
			}
		})
	}
}

// countingScheduler counts the calls and grants of the scheduler it
// wraps, independently of the benchmark's spans.
type countingScheduler struct {
	core.Scheduler
	calls, matched *int64
}

func (c countingScheduler) Schedule(count []int, occupied []bool, res *core.Result) {
	c.Scheduler.Schedule(count, occupied, res)
	*c.calls++
	*c.matched += int64(res.Size)
}

// TestAttributionAccountsForRunSlot checks the traced slot attribution
// against measurements the spans do not make:
//   - every core.Schedule call the engine's grants came from lies inside
//     a core span: the span count equals the calls counted by a wrapper
//     around each scheduler, and the grants of those calls equal the
//     switch's own granted counter over the pass, so core time cannot
//     leak into interconnect self time;
//   - core plus interconnect self time per slot is within 5% of the
//     pass's wall time per slot, measured around whole chunks of slots.
func TestAttributionAccountsForRunSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs timed passes")
	}
	for _, workload := range []string{"slot-uniform", "slot-wide"} {
		t.Run(workload, func(t *testing.T) {
			spec, err := slotSpecFor(workload)
			if err != nil {
				t.Fatal(err)
			}
			const seed, maxSlots = 3, 20000
			ln := newLane("test", (spec.warm+maxSlots)*(spec.n+1))
			in, err := newInputs(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			rig, _, err := setupRig(spec, seed, in, ln)
			if err != nil {
				t.Fatal(err)
			}
			defer rig.close()
			var calls, matched int64
			for o, s := range rig.core.scheds {
				rig.core.scheds[o] = countingScheduler{Scheduler: s, calls: &calls, matched: &matched}
			}
			rig.core.reset()
			var before, after interconnect.Snapshot
			rig.sw.Snapshot(&before)
			pt, err := timedPass(rig.sw, in, time.Second, nowNS, newSamples(maxSlots), ln, nil)
			if err != nil {
				t.Fatal(err)
			}
			rig.sw.Snapshot(&after)
			tr := &slotTrace{pt: pt, rows: selfTimes([]*lane{ln})}

			if spans := tr.rows[spanSchedule].count; spans != calls {
				t.Fatalf("%d core spans for %d Schedule calls", spans, calls)
			}
			if granted := after.Granted - before.Granted; matched != granted {
				t.Fatalf("Schedule calls matched %d, switch granted %d", matched, granted)
			}
			below, self := tr.perSlotNS()
			if below <= 0 || self <= 0 {
				t.Fatalf("attribution missing a layer: core %.0f ns, interconnect %.0f ns per slot", below, self)
			}
			wall := float64(pt.wallNS) / float64(pt.slots)
			if rel := math.Abs(below+self-wall) / wall; rel > 0.05 {
				t.Fatalf("core %.0f + interconnect %.0f = %.0f ns per slot, traced wall %.0f ns (off by %.1f%%)",
					below, self, below+self, wall, 100*rel)
			}
		})
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := newSamples(0)
	for _, v := range []int64{50, 10, 40, 20, 30} {
		s.add(v)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 10}, {0.2, 10}, {0.5, 30}, {0.99, 50}, {1, 50}} {
		if got := s.quantile(c.q); got != c.want {
			t.Fatalf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables in step with the
// repository's BENCHMARK.json, which the benchmark's callers read.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) || !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Fatalf("metric tables differ from BENCHMARK.json:\n json %v %v\n code %v %v", spec.EndToEnd, spec.PerLayer, endToEnd, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var listed []string
	for _, name := range workloadNames() {
		if !unlisted[name] {
			listed = append(listed, name)
		}
	}
	if !reflect.DeepEqual(names, listed) {
		t.Fatalf("workloads %v (and unlisted %v), BENCHMARK.json lists %v", listed, unlisted, names)
	}
}
