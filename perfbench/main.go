// Command perfbench is the repository's benchmark. It runs one named
// workload against the scheduler stack — the paper's per-fiber schedulers
// (internal/core), the slot engine (internal/interconnect), the grant
// service (internal/grant) and the cluster runtime (internal/cluster) —
// checks every output against an untimed reference, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) by name.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload slot-uniform --seed 1 --seconds 5 --trace 0
//
// Inputs are a deterministic function of --seed; the program under test
// sees only the generated inputs. The benchmark measures each layer from
// outside, through public seams (interconnect.Config.Remote, the grant
// client and Config.Telemetry, cluster.Controller), and never edits the
// program. README.md in this directory lists the workloads, the metrics
// and which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	out      io.Writer
}

// workloads maps each workload name to its runner. A runner fills the
// report with every metric of the run's kind (end-to-end, or per-layer
// when tracing) and returns an error when an output check fails.
var workloads = map[string]func(opt options, rep *report) error{
	"slot-uniform":     runSlotWorkload,
	"slot-wide":        runSlotWorkload,
	"cluster-loopback": runSlotWorkload,
	"grant-loopback":   runGrantWorkload,
}

// unlisted are workloads that run by hand but are not in BENCHMARK.json.
// slot-wide's times swing with the shared host by more than the bounds
// allow, even scaled by host speed (README.md).
var unlisted = map[string]bool{"slot-wide": true}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Uint64("seed", 1, "input seed (dimensionless)")
		seconds  = fs.Float64("seconds", 5, "measured time per run in seconds")
		trace    = fs.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs the traced pass and reports the per-layer metrics")
		traceDir = fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for the Chrome trace and self-time table of a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opt := options{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1, traceDir: *traceDir, out: stdout,
	}
	rep := newReport(stdout, opt.trace)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", opt.workload, opt.seed, opt.seconds, *trace)
	err := runner(opt, rep)
	if err == nil {
		err = rep.complete()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		rep.correct = false
	}
	if err := rep.writeJSON(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// metricDef is one metric the benchmark reports, with its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. An "op" is one slot on the slot workloads and one request
// on grant-loopback; README.md gives each metric's definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p95_us", "us"},
	{"granted_ratio", "ratio"},
	{"cpu_us_per_op", "us"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by every traced
// run. A layer a workload bypasses reports 0.
var perLayer = []metricDef{
	{"core.busy_us_per_slot", "us"},
	{"core.share", "ratio"},
	{"core.call_p50_ns", "ns"},
	{"core.call_p99_ns", "ns"},
	{"core.calls_per_slot", "count"},
	{"core.match_ratio", "ratio"},
	{"interconnect.self_us_per_slot", "us"},
	{"interconnect.share", "ratio"},
	{"interconnect.allocs_per_slot", "count"},
	{"interconnect.arrivals_per_slot", "count"},
	{"interconnect.input_blocked_ratio", "ratio"},
	{"cluster.batch_us_p50", "us"},
	{"cluster.batch_us_p99", "us"},
	{"cluster.rpc_us_mean", "us"},
	{"cluster.encode_us_mean", "us"},
	{"cluster.node_decode_us_mean", "us"},
	{"cluster.node_schedule_us_mean", "us"},
	{"cluster.node_encode_us_mean", "us"},
	{"cluster.bytes_per_slot", "bytes"},
	{"cluster.fallback_ratio", "ratio"},
	{"cluster.retries", "count"},
	{"grant.submit_us_p50", "us"},
	{"grant.stage.ingest_us", "us"},
	{"grant.stage.admission_us", "us"},
	{"grant.stage.queue_wait_us", "us"},
	{"grant.stage.round_batch_us", "us"},
	{"grant.stage.engine_schedule_us", "us"},
	{"grant.stage.egress_write_us", "us"},
	{"grant.unattributed_us", "us"},
	{"grant.core_us_per_round", "us"},
	{"grant.batch_size", "count"},
	{"grant.rounds_per_s", "1/s"},
	{"grant.retry_ratio", "ratio"},
	{"loadgen.lag_p99_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// metricOut is one metric as printed in the result JSON.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, printing each as a human-readable line
// (name, value, unit, sample count and what it measures) as it is set.
type report struct {
	w         io.Writer
	defs      []metricDef
	metrics   map[string]metricOut
	correct   bool
	attempted int64
	failed    int64
}

func newReport(w io.Writer, traced bool) *report {
	r := &report{w: w, defs: endToEnd, metrics: map[string]metricOut{}, correct: true}
	if traced {
		r.defs = perLayer
		// Layers the workload bypasses stay at zero.
		for _, d := range perLayer {
			r.metrics[d.Name] = metricOut{Value: 0, Unit: d.Unit}
		}
	}
	return r
}

// set records metric name, which must be one of the run's kind.
func (r *report) set(name string, value float64, samples int64, what string) {
	unit := ""
	for _, d := range r.defs {
		if d.Name == name {
			unit = d.Unit
		}
	}
	if unit == "" {
		panic("perfbench: no metric " + name + " in this run's kind")
	}
	r.metrics[name] = metricOut{Value: value, Unit: unit}
	fmt.Fprintf(r.w, "  %-34s %14.6g %-6s n=%-9d %s\n", name, value, unit, samples, what)
}

// note prints a context line that is not a metric.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "  "+format+"\n", args...)
}

// complete checks that every metric of the run's kind was set; a traced
// run's bypassed layers were pre-set to zero.
func (r *report) complete() error {
	var missing []string
	for _, d := range r.defs {
		if _, ok := r.metrics[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if r.attempted < 1 {
		return errors.New("no operations attempted")
	}
	return nil
}

func (r *report) writeJSON(w io.Writer) error {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runDeadline converts --seconds into a duration.
func runDeadline(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}
