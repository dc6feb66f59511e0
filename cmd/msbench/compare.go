package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"mobistreams/internal/bench"
)

// The regression gate compares the metrics of fresh experiment results
// (DIR/<experiment>.json, see bench.WriteResult) against the committed
// baseline, BENCH_baseline.json at the repo root, whose keys are the
// bounded metric names. Regenerate the results with:
//
//	go build -o msbench ./cmd/msbench
//	./msbench -exp emit -out bench-out
//	./msbench -exp wire -out bench-out
//	./msbench -exp obs -out bench-out
//	./msbench -exp churn -seed 5 -out bench-out
//	./msbench -exp checkpoint -seed 5 -out bench-out
//	./msbench -exp scale -seed 5 -out bench-out
//	./msbench -exp elastic -seed 5 -out bench-out
//	./msbench -exp federation -seed 5 -out bench-out
//	./msbench -exp placement -seed 5 -out bench-out
//	./msbench -compare -out bench-out
//
// and copy a baseline number from the "metrics" map of those files.

// regressionFactor is the gate's threshold: a metric more than 20% worse
// than baseline fails the build. Small absolute grace terms keep the gate
// from tripping on simulation noise around tiny baselines.
const regressionFactor = 1.20

// bound is one gate check on one metric.
type bound struct {
	metric string
	// higher marks a higher-is-better metric: its limit is baseline/factor
	// minus grace and the value must not fall below it. Otherwise the limit
	// is baseline*factor plus grace and the value must not exceed it.
	higher bool
	// pinned bounds have no baseline key: the limit is grace itself.
	pinned bool
	// strict fails a higher-is-better value that only reaches the limit.
	strict        bool
	factor, grace float64
}

func (b bound) limit(base float64) float64 {
	switch {
	case b.pinned:
		return b.grace
	case b.higher:
		return base/b.factor - b.grace
	default:
		return base*b.factor + b.grace
	}
}

func (b bound) fails(v, limit float64) bool {
	if b.higher {
		return v < limit || b.strict && v == limit
	}
	return v > limit
}

var bounds = []bound{
	// The worst tuples_lost across the churn experiment's scheduler-on rows.
	{metric: "max_scheduler_tuple_loss", factor: regressionFactor, grace: 3},
	// The incremental pipeline's mean checkpoint pause at the largest
	// state size.
	{metric: "incr_pause_mean_ms_largest", factor: regressionFactor, grace: 5},
	// The best throughput at the largest swept region size: a >20% drop
	// means the data plane regressed.
	{metric: "scale_tps_largest", higher: true, factor: regressionFactor, grace: 5},
	// The grace absorbs measurement noise from unrelated background
	// allocation (GC bookkeeping) without letting a real per-tuple
	// allocation — the smallest possible regression is 1.0 — pass.
	{metric: "emit_allocs_per_op", factor: 1, grace: 0.1},
	// The same role for the wire codec's encode rows: background noise
	// passes, one real allocation per frame fails.
	{metric: "wire_encode_allocs_per_op", factor: 1, grace: 0.1},
	// The grace absorbs scheduler jitter in the overhead measurement — the
	// two timed loops run back to back on shared CI machines, so the
	// percentage is noisy even when the instrumentation cost is flat. It
	// stacks on the multiplicative factor: the measured percentage is a
	// ratio of two timings whose machine-to-machine spread (clock-read cost
	// vs CPU speed) is wider than either timing alone.
	{metric: "obs_overhead_pct", factor: regressionFactor, grace: 15},
	// As for the emit path, on the sampling-off instrumented path: noise
	// passes, a real per-tuple allocation fails.
	{metric: "trace_allocs_per_op", factor: 1, grace: 0.1},
	// The grace absorbs scaled-clock jitter in the elastic run's hotspot
	// p99: the tail is a handful of tuples queued behind a split's pause
	// window, so shared-machine scheduling moves it tens of ms between
	// runs even when the policy behaves identically.
	{metric: "elastic_p99_hotspot_ms", factor: regressionFactor, grace: 100},
	// The grace absorbs small shifts in gossip sampling when the sweep's
	// seed-adjacent parameters move (peer-set ordering, digest window
	// phase). The byte counts themselves are deterministic, so the grace
	// only needs to cover intentional small retunes, not noise.
	{metric: "federation_ctrl_bytes_per_phone_largest", factor: regressionFactor, grace: 20},
	// The grace absorbs churn-schedule sensitivity in the loss-vs-greedy
	// ratio: both arms run the same seed, but a migration landing one tick
	// earlier can shift a single lost tuple between arms, which moves the
	// ratio a lot when the absolute counts are small. At the committed
	// baseline (both arms lose zero; ratio 0.0) the grace is what tolerates
	// one stray planner-arm tuple against a clean greedy run, so it must
	// stay above 1.0.
	{metric: "placement_loss_vs_greedy", factor: regressionFactor, grace: 1.5},
	// Exactly-once invariants: a duplicate output across a live split or
	// merge, a cross-region envelope or a plan step is a protocol bug.
	{metric: "elastic_duplicates", pinned: true},
	{metric: "federation_xregion_dup_outputs", pinned: true},
	{metric: "placement_planner_duplicates", pinned: true},
	// The planner must beat greedy on cross-channel airtime share outright.
	// The claim is structural (repacking removes cross-cell hops), so it
	// gets no regression factor.
	{metric: "placement_cross_channel_cut_vs_greedy", higher: true, pinned: true, strict: true},
}

// runCompare checks every bound against the metrics in dir/*.json and
// fails when a metric is missing or past its limit.
func runCompare(baselinePath, dir string, w io.Writer) error {
	baseline, err := readBaseline(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	got, err := readMetrics(dir)
	if err != nil {
		return err
	}
	var failures []string
	for _, b := range bounds {
		base, ok := baseline[b.metric]
		if !ok && !b.pinned {
			failures = append(failures, fmt.Sprintf("%s: no baseline in %s", b.metric, baselinePath))
			continue
		}
		lim := b.limit(base)
		baseText := "pinned"
		if !b.pinned {
			baseText = "baseline " + num(base)
		}
		m, ok := got[b.metric]
		if !ok {
			fmt.Fprintf(w, "gate: %s missing (%s, limit %s)\n", b.metric, baseText, num(lim))
			failures = append(failures, fmt.Sprintf("%s: no result in %s", b.metric, dir))
			continue
		}
		fmt.Fprintf(w, "gate: %s %s %s (%s, limit %s)\n", b.metric, num(m.Value), m.Unit, baseText, num(lim))
		if b.fails(m.Value, lim) {
			failures = append(failures, fmt.Sprintf("%s regressed: %s against limit %s", b.metric, num(m.Value), num(lim)))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(w, "FAIL %s\n", f)
		}
		return fmt.Errorf("%d of %d bounds failed vs %s", len(failures), len(bounds), baselinePath)
	}
	fmt.Fprintln(w, "gate: no regressions")
	return nil
}

// num prints a gate number rounded to three decimals.
func num(v float64) string {
	return strconv.FormatFloat(math.Round(v*1000)/1000, 'f', -1, 64)
}

// readBaseline returns the baseline's numeric keys.
func readBaseline(path string) (map[string]float64, error) {
	var raw map[string]any
	if err := readJSON(path, &raw); err != nil {
		return nil, err
	}
	base := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			base[k] = f
		}
	}
	return base, nil
}

// readMetrics merges the metrics of every result file in dir.
func readMetrics(dir string) (bench.Metrics, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %q", dir)
	}
	all := bench.Metrics{}
	for _, path := range paths {
		var res struct{ Metrics bench.Metrics }
		if err := readJSON(path, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, m := range res.Metrics {
			if _, dup := all[name]; dup {
				return nil, fmt.Errorf("%s: metric %s also in another result file", path, name)
			}
			all[name] = m
		}
	}
	return all, nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
