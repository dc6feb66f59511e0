package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobistreams/internal/bench"
)

// fixture is one result set: the typed rows of each gated experiment.
// healthy() matches the fixture baseline; tests break one experiment's rows
// to build a failure case.
type fixture struct {
	churn   []bench.ChurnOutcome
	ckpt    []bench.CkptOutcome
	scale   []bench.ScaleRow
	emit    []bench.EmitRow
	wire    []bench.WireRow
	obs     []bench.ObsRow
	elastic []bench.ElasticOutcome
	fed     []bench.FederationPoint
	place   []bench.PlacementOutcome
}

const fixtureBaseline = `{
	"comment": "test fixture",
	"max_scheduler_tuple_loss": 0,
	"incr_pause_mean_ms_largest": 10.0,
	"scale_tps_largest": 300.0,
	"emit_allocs_per_op": 0.0,
	"wire_encode_allocs_per_op": 0.0,
	"obs_overhead_pct": 5.0,
	"trace_allocs_per_op": 0.0,
	"elastic_p99_hotspot_ms": 650.0,
	"federation_ctrl_bytes_per_phone_largest": 560.0,
	"placement_loss_vs_greedy": 0.5
}`

func healthy() *fixture {
	return &fixture{
		churn: []bench.ChurnOutcome{
			{Mode: "scheduler", Lost: 0},
			{Mode: "reactive", Lost: 50},
		},
		ckpt: []bench.CkptOutcome{
			{Mode: "incremental", StateBytes: 1 << 20, PauseMeanMs: 9.5},
			{Mode: "full", StateBytes: 1 << 20, PauseMeanMs: 40},
		},
		scale: []bench.ScaleRow{
			{Mode: "tuned", Phones: 32, Channels: 4, TPS: 400},
			{Mode: "tuned", Phones: 64, Channels: 1, TPS: 200},
			{Mode: "tuned", Phones: 64, Channels: 4, TPS: 310},
		},
		emit: []bench.EmitRow{
			{Mode: "context", AllocsPerOp: 0, NsPerOp: 100},
			{Mode: "legacy", AllocsPerOp: 2, NsPerOp: 150},
		},
		wire: []bench.WireRow{
			{Op: "encode_stream", AllocsPerOp: 0, NsPerOp: 50, FrameBytes: 80},
			{Op: "encode_batch16", AllocsPerOp: 0, NsPerOp: 700, FrameBytes: 1200},
			{Op: "decode_stream", AllocsPerOp: 2, NsPerOp: 90, FrameBytes: 80},
		},
		obs: []bench.ObsRow{{
			OffNsPerOp: 100, HistNsPerOp: 106, TraceNsPerOp: 240, ObsOverheadPct: 6,
			TraceAllocsPerOp: 0, TracedAllocsPerOp: 1.2, Spans: 16384,
		}},
		elastic: []bench.ElasticOutcome{
			{Mode: "static", P99HotMs: 4500, DegradeFactor: 13},
			{Mode: "elastic", P99HotMs: 640, DegradeFactor: 1.5, Splits: 2},
		},
		fed: []bench.FederationPoint{
			{Mode: "gossip", Regions: 4, CtrlBytesPerPhone: 380},
			{Mode: "gossip", Regions: 64, CtrlBytesPerPhone: 555},
			{Mode: "unicast", Regions: 64, CtrlBytesPerPhone: 756},
		},
		place: []bench.PlacementOutcome{
			{Mode: "greedy", Lost: 8, CrossChannelShare: 0.55},
			{Mode: "planner", Lost: 2, CrossChannelShare: 0.12},
		},
	}
}

// write saves every experiment through the writer msbench uses, plus the
// fixture baseline, and returns the baseline path and the results dir.
func (f *fixture) write(t *testing.T) (baseline, dir string) {
	t.Helper()
	root := t.TempDir()
	baseline = filepath.Join(root, "baseline.json")
	if err := os.WriteFile(baseline, []byte(fixtureBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(root, "out")
	for _, err := range []error{
		saveQuiet(dir, "churn", f.churn, bench.ChurnMetrics(f.churn)),
		saveQuiet(dir, "checkpoint", f.ckpt, bench.CkptMetrics(f.ckpt)),
		saveQuiet(dir, "scale", f.scale, bench.ScaleMetrics(f.scale)),
		saveQuiet(dir, "emit", f.emit, bench.EmitMetrics(f.emit)),
		saveQuiet(dir, "wire", f.wire, bench.WireMetrics(f.wire)),
		saveQuiet(dir, "obs", f.obs, bench.ObsMetrics(f.obs)),
		saveQuiet(dir, "elastic", f.elastic, bench.ElasticMetrics(f.elastic)),
		saveQuiet(dir, "federation", f.fed, bench.FederationMetrics(f.fed)),
		saveQuiet(dir, "placement", f.place, bench.PlacementMetrics(f.place)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return baseline, dir
}

func saveQuiet[R any](dir, exp string, rows []R, m bench.Metrics) error {
	_, err := bench.WriteResult(dir, exp, 5, rows, m)
	return err
}

func (f *fixture) gate(t *testing.T) (string, error) {
	t.Helper()
	baseline, dir := f.write(t)
	var out bytes.Buffer
	err := runCompare(baseline, dir, &out)
	return out.String(), err
}

// expectFail asserts the gate fails and attributes a failure to metric.
func expectFail(t *testing.T, f *fixture, metric string) {
	t.Helper()
	out, err := f.gate(t)
	if err == nil {
		t.Fatalf("gate passed, want a %s failure:\n%s", metric, out)
	}
	if !strings.Contains(out, "FAIL "+metric) {
		t.Fatalf("failure not attributed to %s:\n%s", metric, out)
	}
}

// TestComparePasses also pins every gate line of the healthy fixture: the
// values and limits are the ones the per-experiment gate printed before it
// became one bound table.
func TestComparePasses(t *testing.T) {
	out, err := healthy().gate(t)
	if err != nil {
		t.Fatalf("healthy results failed the gate: %v\n%s", err, out)
	}
	for _, line := range []string{
		"gate: max_scheduler_tuple_loss 0 count (baseline 0, limit 3)",
		"gate: incr_pause_mean_ms_largest 9.5 ms (baseline 10, limit 17)",
		"gate: scale_tps_largest 310 1/s (baseline 300, limit 245)",
		"gate: emit_allocs_per_op 0 count (baseline 0, limit 0.1)",
		"gate: wire_encode_allocs_per_op 0 count (baseline 0, limit 0.1)",
		"gate: obs_overhead_pct 6 % (baseline 5, limit 21)",
		"gate: trace_allocs_per_op 0 count (baseline 0, limit 0.1)",
		"gate: elastic_p99_hotspot_ms 640 ms (baseline 650, limit 880)",
		"gate: federation_ctrl_bytes_per_phone_largest 555 B (baseline 560, limit 692)",
		"gate: placement_loss_vs_greedy 0.25 ratio (baseline 0.5, limit 2.1)",
		"gate: elastic_duplicates 0 count (pinned, limit 0)",
		"gate: federation_xregion_dup_outputs 0 count (pinned, limit 0)",
		"gate: placement_planner_duplicates 0 count (pinned, limit 0)",
		"gate: placement_cross_channel_cut_vs_greedy 0.43 ratio (pinned, limit 0)",
		"gate: no regressions",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
	if n := strings.Count(out, "gate: "); n != len(bounds)+1 {
		t.Errorf("%d gate lines for %d bounds:\n%s", n, len(bounds), out)
	}
}

// TestGateLimitsAtCommittedBaseline pins every limit the gate computes from
// the committed BENCH_baseline.json.
func TestGateLimitsAtCommittedBaseline(t *testing.T) {
	base, err := readBaseline("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"max_scheduler_tuple_loss":                3,
		"incr_pause_mean_ms_largest":              17.612,
		"scale_tps_largest":                       261.67,
		"emit_allocs_per_op":                      0.1,
		"wire_encode_allocs_per_op":               0.1,
		"obs_overhead_pct":                        1215,
		"trace_allocs_per_op":                     0.1,
		"elastic_p99_hotspot_ms":                  340,
		"federation_ctrl_bytes_per_phone_largest": 692,
		"placement_loss_vs_greedy":                1.5,
		"elastic_duplicates":                      0,
		"federation_xregion_dup_outputs":          0,
		"placement_planner_duplicates":            0,
		"placement_cross_channel_cut_vs_greedy":   0,
	}
	if len(bounds) != len(want) {
		t.Fatalf("%d bounds, want %d", len(bounds), len(want))
	}
	for _, b := range bounds {
		w, ok := want[b.metric]
		if !ok {
			t.Errorf("unexpected bound %s", b.metric)
			continue
		}
		if _, ok := base[b.metric]; ok == b.pinned {
			t.Errorf("%s: in baseline %v, pinned %v", b.metric, ok, b.pinned)
		}
		if got := b.limit(base[b.metric]); math.Abs(got-w) > 0.005 {
			t.Errorf("%s limit %v, want %v", b.metric, got, w)
		}
	}
	// The planner must stay strictly below greedy: a zero cut fails.
	for _, b := range bounds {
		if b.metric == "placement_cross_channel_cut_vs_greedy" && (!b.fails(0, 0) || b.fails(0.001, 0)) {
			t.Error("cross-channel cut must fail at 0 and pass above it")
		}
	}
}

// TestCompareFailsOnMissingMetric: a result file that lacks one gate
// metric fails the gate, naming the metric.
func TestCompareFailsOnMissingMetric(t *testing.T) {
	baseline, dir := healthy().write(t)
	f := healthy()
	m := bench.PlacementMetrics(f.place)
	delete(m, "placement_planner_duplicates")
	if err := saveQuiet(dir, "placement", f.place, m); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runCompare(baseline, dir, &out); err == nil {
		t.Fatalf("a missing metric passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL placement_planner_duplicates: no result") {
		t.Fatalf("failure not attributed to the missing metric:\n%s", out.String())
	}
}

// TestCompareFailsOnMissingResultFile: an experiment that wrote nothing
// fails the gate through its missing metrics.
func TestCompareFailsOnMissingResultFile(t *testing.T) {
	baseline, dir := healthy().write(t)
	if err := os.Remove(filepath.Join(dir, "churn.json")); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runCompare(baseline, dir, &out); err == nil {
		t.Fatalf("a missing result file passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL max_scheduler_tuple_loss: no result") {
		t.Fatalf("failure not attributed to the churn metric:\n%s", out.String())
	}
}

// TestCompareFailsOnWireEncodeAlloc is the gate's verified fail path: a
// single allocation per encoded frame — the smallest possible regression —
// must fail the build, decode-side allocations must not.
func TestCompareFailsOnWireEncodeAlloc(t *testing.T) {
	f := healthy()
	f.wire = []bench.WireRow{
		{Op: "encode_stream", AllocsPerOp: 1, NsPerOp: 55, FrameBytes: 80},
		{Op: "decode_stream", AllocsPerOp: 2, NsPerOp: 90, FrameBytes: 80},
	}
	expectFail(t, f, "wire_encode_allocs_per_op")
}

// TestCompareFailsOnMissingWireRows: results without encode rows must not
// silently pass.
func TestCompareFailsOnMissingWireRows(t *testing.T) {
	f := healthy()
	f.wire = []bench.WireRow{{Op: "decode_stream", AllocsPerOp: 2, NsPerOp: 90, FrameBytes: 80}}
	expectFail(t, f, "wire_encode_allocs_per_op")
}

// TestCompareFailsOnEmitAlloc keeps the emit pin honest alongside the wire
// pin.
func TestCompareFailsOnEmitAlloc(t *testing.T) {
	f := healthy()
	f.emit = []bench.EmitRow{{Mode: "context", AllocsPerOp: 1, NsPerOp: 120}}
	expectFail(t, f, "emit_allocs_per_op")
}

// TestCompareFailsOnTraceAlloc is the observability gate's verified fail
// path: one allocation per tuple on the sampling-off instrumented path —
// the smallest possible regression — must fail the build.
func TestCompareFailsOnTraceAlloc(t *testing.T) {
	f := healthy()
	f.obs = []bench.ObsRow{{OffNsPerOp: 100, HistNsPerOp: 106, ObsOverheadPct: 6, TraceAllocsPerOp: 1}}
	expectFail(t, f, "trace_allocs_per_op")
}

// TestCompareFailsOnObsOverhead: histogram overhead blowing past the
// baseline plus grace must fail, attributed to the obs gate.
func TestCompareFailsOnObsOverhead(t *testing.T) {
	f := healthy()
	f.obs = []bench.ObsRow{{OffNsPerOp: 100, HistNsPerOp: 180, ObsOverheadPct: 80}}
	expectFail(t, f, "obs_overhead_pct")
}

// TestCompareFailsOnEmptyObsResults: an empty obs result must not
// silently pass the pinned-allocation gate.
func TestCompareFailsOnEmptyObsResults(t *testing.T) {
	f := healthy()
	f.obs = nil
	expectFail(t, f, "trace_allocs_per_op")
}

// TestCompareFailsOnElasticP99Regression is the elastic gate's verified
// fail path: an elastic-on hotspot p99 past baseline×1.2 plus grace means
// the split/merge policy stopped absorbing the hotspot.
func TestCompareFailsOnElasticP99Regression(t *testing.T) {
	f := healthy()
	f.elastic = []bench.ElasticOutcome{
		{Mode: "static", P99HotMs: 4500},
		{Mode: "elastic", P99HotMs: 3200},
	}
	expectFail(t, f, "elastic_p99_hotspot_ms")
}

// TestCompareFailsOnElasticDuplicates: exactly-once across live splits is
// gated at zero with no grace — one duplicate output fails the build even
// when the latency numbers are healthy.
func TestCompareFailsOnElasticDuplicates(t *testing.T) {
	f := healthy()
	f.elastic = []bench.ElasticOutcome{
		{Mode: "static", P99HotMs: 4500},
		{Mode: "elastic", P99HotMs: 640, Splits: 2, Duplicates: 1},
	}
	expectFail(t, f, "elastic_duplicates")
}

// TestCompareFailsOnMissingElasticRow: results without an elastic-mode row
// must not silently pass.
func TestCompareFailsOnMissingElasticRow(t *testing.T) {
	f := healthy()
	f.elastic = []bench.ElasticOutcome{{Mode: "static", P99HotMs: 4500}}
	expectFail(t, f, "elastic_p99_hotspot_ms")
}

// TestCompareFailsOnFederationFanoutRegression is the federation gate's
// verified fail path: busiest-node control bytes per phone at the largest
// swept region count blowing past baseline×1.2 plus grace means the
// gossip overlay's sub-linear fan-out regressed.
func TestCompareFailsOnFederationFanoutRegression(t *testing.T) {
	f := healthy()
	f.fed = []bench.FederationPoint{
		{Mode: "gossip", Regions: 4, CtrlBytesPerPhone: 380},
		{Mode: "gossip", Regions: 64, CtrlBytesPerPhone: 1400},
	}
	expectFail(t, f, "federation_ctrl_bytes_per_phone_largest")
}

// TestCompareFailsOnFederationDuplicates: cross-region exactly-once is
// gated at zero with no grace — one duplicate output at any sweep point
// fails the build even when the byte counts are healthy.
func TestCompareFailsOnFederationDuplicates(t *testing.T) {
	f := healthy()
	f.fed = []bench.FederationPoint{
		{Mode: "gossip", Regions: 4, CtrlBytesPerPhone: 380, XRegionDupOutputs: 1},
		{Mode: "gossip", Regions: 64, CtrlBytesPerPhone: 555},
	}
	expectFail(t, f, "federation_xregion_dup_outputs")
}

// TestCompareFailsOnMissingFederationRows: results without gossip-mode
// sweep rows must not silently pass.
func TestCompareFailsOnMissingFederationRows(t *testing.T) {
	f := healthy()
	f.fed = []bench.FederationPoint{{Mode: "unicast", Regions: 64, CtrlBytesPerPhone: 756}}
	expectFail(t, f, "federation_ctrl_bytes_per_phone_largest")
}

// TestCompareFailsOnPlacementLossRegression is the placement gate's verified
// fail path: the planner arm losing far more tuples than the greedy baseline
// (ratio past baseline×1.2 plus grace) means pack-to-empty planning stopped
// paying for itself under churn.
func TestCompareFailsOnPlacementLossRegression(t *testing.T) {
	f := healthy()
	f.place = []bench.PlacementOutcome{
		{Mode: "greedy", Lost: 8, CrossChannelShare: 0.55},
		{Mode: "planner", Lost: 40, CrossChannelShare: 0.12},
	}
	expectFail(t, f, "placement_loss_vs_greedy")
}

// TestCompareFailsOnPlacementCrossChannelClaim: the planner's structural
// claim — less cross-channel airtime than greedy — is gated with no grace.
// The moment repacking stops consolidating pipelines onto single channels,
// the share meets or exceeds greedy's and the build fails.
func TestCompareFailsOnPlacementCrossChannelClaim(t *testing.T) {
	f := healthy()
	f.place = []bench.PlacementOutcome{
		{Mode: "greedy", Lost: 8, CrossChannelShare: 0.55},
		{Mode: "planner", Lost: 2, CrossChannelShare: 0.55},
	}
	expectFail(t, f, "placement_cross_channel_cut_vs_greedy")
}

// TestCompareFailsOnPlacementDuplicates: plan execution rides the same
// exactly-once migration path as the scheduler, so the planner arm is gated
// at zero duplicates with no grace.
func TestCompareFailsOnPlacementDuplicates(t *testing.T) {
	f := healthy()
	f.place = []bench.PlacementOutcome{
		{Mode: "greedy", Lost: 8, CrossChannelShare: 0.55},
		{Mode: "planner", Lost: 2, CrossChannelShare: 0.12, Duplicates: 1},
	}
	expectFail(t, f, "placement_planner_duplicates")
}

// TestCompareFailsOnMissingPlacementRows: results without both a greedy and
// a planner row must not silently pass.
func TestCompareFailsOnMissingPlacementRows(t *testing.T) {
	f := healthy()
	f.place = []bench.PlacementOutcome{{Mode: "greedy", Lost: 8, CrossChannelShare: 0.55}}
	expectFail(t, f, "placement_loss_vs_greedy")
}
