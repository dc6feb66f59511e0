// Command perfbench is the repository benchmark. It deploys one workload
// in-process against the current runtime, drives it open-loop from a seeded
// schedule, checks its outputs and prints every metric by name, with the
// last line a JSON summary:
//
//	perfbench --workload tree64 --seed 1 --seconds 12 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// makes an untraced run and then a traced one, and reports the per-layer
// metrics, including the tracing overhead between the two; the spans of
// the traced run are written as CSV under --spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"sim_tput_tps", "1/s"},
	{"sim_lat_p50_ms", "ms"},
	{"sim_lat_tail_ms", "ms"},
	{"energy_mj_per_tuple", "mJ"},
	{"host_cpu_us_per_tuple", "us"},
	{"host_allocs_per_tuple", "count"},
	{"host_heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// Printed with the end-to-end metrics but kept out of the JSON summary:
// they are zero or undefined on some workloads. fail_ratio is the summary's
// failed/attempted.
var e2eExtra = []metricDef{
	{"fail_ratio", "ratio"},
	{"outage_s", "s"},
	{"ckpt_pause_ms", "ms"},
}

var layerMetricDefs = []metricDef{
	{"region.ingest_ns", "ns"},
	{"region.gen_late_ms_p99", "ms"},
	{"region.dup_suppressed", "count"},
	{"node.queue_wait_ms_p99", "ms"},
	{"node.queue_depth_p99", "count"},
	{"node.batch_mean", "count"},
	{"node.inbox_drops", "count"},
	{"operator.process_ns_per_tuple", "ns"},
	{"operator.hops_per_tuple", "count"},
	{"operator.snapshot_ms_p99", "ms"},
	{"operator.state_mb", "MB"},
	{"phone.cpu_util_max", "ratio"},
	{"simnet.airtime_util_max", "ratio"},
	{"simnet.data_bytes_per_tuple", "B"},
	{"simnet.ckpt_mb", "MB"},
	{"simnet.repl_mb", "MB"},
	{"simnet.cross_channel_share", "ratio"},
	{"simnet.cell_mb", "MB"},
	{"checkpoint.pause_max_ms", "ms"},
	{"checkpoint.blob_mb_per_ckpt", "MB"},
	{"checkpoint.delta_ratio", "ratio"},
	{"checkpoint.commits", "count"},
	{"checkpoint.commit_lag_s", "s"},
	{"controller.detect_s", "s"},
	{"controller.restore_s", "s"},
	{"controller.migrations", "count"},
	{"controller.recoveries", "count"},
	{"controller.plan_commits", "count"},
	{"controller.plan_aborts", "count"},
	{"clock.now_per_tuple", "count"},
	{"clock.sleep_per_tuple", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"host.gc_cycles", "count"},
	{"host.gc_pause_ms", "ms"},
	{"host.goroutines_peak", "count"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and the simulated media")
	seconds := fs.Int("seconds", 20, "wall seconds of measurement, shared by the run's deployments")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run and per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans")
	// Internal: run one deployment with this seed and window, in-process,
	// and print its report for the parent.
	childSeed := fs.Int64("deployment-seed", 0, "")
	childWall := fs.Duration("deployment-window", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s := specByName(*name)
	if s == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, s := range specs {
			names = append(names, s.name)
		}
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	// One P: with two, the runtime's scaled-clock sleepers spin against
	// each other across cores and identical runs drift ±20% in simulated
	// latency and host CPU; with one they agree within a few percent, and
	// the figures do not depend on the machine's core count.
	runtime.GOMAXPROCS(1)

	spansPath := filepath.Join(*spans, fmt.Sprintf("%s-seed%d-spans.csv", s.name, *seed))
	if *childWall > 0 {
		var rec *recorder
		if *trace == 1 {
			rec = newRecorder()
		}
		if err := runChild(stdout, s, *childSeed, *childWall, rec, spansPath); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	wall := time.Duration(*seconds) * time.Second
	// Each deployment of a run gets its own seed, drawn from --seed.
	seeds := rand.New(rand.NewSource(*seed))
	deployment := func(window time.Duration, trace int) (*report, error) {
		return spawn(childLimit(s, window), "--workload", s.name, "--seed", fmt.Sprint(*seed), "--trace", fmt.Sprint(trace),
			"--spans", *spans, "--deployment-seed", fmt.Sprint(seeds.Int63()), "--deployment-window", window.String())
	}

	if *trace == 1 {
		// The per-layer run: one untraced deployment as the overhead
		// baseline, then one traced, each for half the time.
		base, err := deployment(wall/2, 0)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		printReport(stdout, s, combine([]*report{base}), wall/2, 1)
		rep, err := deployment(wall/2, 1)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		for _, k := range []string{"host.gc_cycles", "host.gc_pause_ms", "host.goroutines_peak"} {
			rep.Layer[k] = base.Layer[k]
		}
		rep.Layer["obs.trace_overhead_pct"] = 100 * (rep.E2E["host_cpu_us_per_tuple"]/base.E2E["host_cpu_us_per_tuple"] - 1)
		fmt.Fprintln(stdout, "traced run:", rep.SpanNote)
		printLayers(stdout, rep)
		return summarise(stdout, stderr, combine([]*report{base, rep}), layerMetricDefs, rep.Layer)
	}

	var reps []*report
	for i := 0; i < s.reps; i++ {
		rep, err := deployment(wall/time.Duration(s.reps), 0)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		reps = append(reps, rep)
	}
	rep := combine(reps)
	printReport(stdout, s, rep, wall, s.reps)
	return summarise(stdout, stderr, rep, e2eMetrics, rep.E2E)
}

// summarise prints the last line: the checks and the named metrics as JSON.
func summarise(stdout, stderr io.Writer, rep *report, defs []metricDef, metrics map[string]float64) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, map[string]value{}}
	for _, m := range defs {
		v := metrics[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // n/a: the layer did no work here (printed as n/a above)
		}
		summary.Metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func fmtValue(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.6g", v)
}

func printReport(w io.Writer, s *spec, rep *report, wall time.Duration, deployments int) {
	fmt.Fprintf(w, "workload %s: speedup %g, %d deployment(s) measured for %v wall = %v simulated in all, %d outputs\n",
		s.name, s.speedup, deployments, wall, time.Duration(float64(wall)*s.speedup), rep.Outputs)
	for _, m := range append(append([]metricDef(nil), e2eMetrics...), e2eExtra...) {
		fmt.Fprintf(w, "  %-24s %12s %s\n", m.name, fmtValue(rep.E2E[m.name]), m.unit)
	}
	fmt.Fprintf(w, "  tail percentile p%g, %d samples beyond it\n", rep.TailPct, rep.TailBeyond)
	fmt.Fprintf(w, "  checks: correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}

func printLayers(w io.Writer, rep *report) {
	names := make([]string, 0, len(layerMetricDefs))
	units := map[string]string{}
	for _, m := range layerMetricDefs {
		names = append(names, m.name)
		units[m.name] = m.unit
	}
	sort.Strings(names)
	fmt.Fprintln(w, "per-layer (traced run):")
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %12s %s\n", n, fmtValue(rep.Layer[n]), units[n])
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}
