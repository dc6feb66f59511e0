package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// roundTrip writes rows and their metrics through WriteResult and reads
// the file back, failing on any loss.
func roundTrip[R any](t *testing.T, exp string, rows []R, m Metrics) Result[R] {
	t.Helper()
	path, err := WriteResult(t.TempDir(), exp, 5, rows, m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res Result[R]
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("result is not valid JSON: %v", err)
	}
	want := Result[R]{Experiment: exp, Seed: 5, Rows: rows, Metrics: m}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", res, want)
	}
	return res
}

// TestWriteResultRoundTrip pins the one result schema: the file name, the
// four top-level keys and the {value, unit} metric shape.
func TestWriteResultRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bench-out")
	rows := []EmitRow{{Mode: "context", AllocsPerOp: 0, NsPerOp: 90}}
	m := Metrics{"emit_allocs_per_op": {Value: 0, Unit: "count"}}
	path, err := WriteResult(dir, "emit", 7, rows, m)
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "emit.json") {
		t.Fatalf("wrote %s, want %s/emit.json", path, dir)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 || raw["experiment"] == nil || raw["seed"] == nil || raw["rows"] == nil || raw["metrics"] == nil {
		t.Fatalf("want keys experiment, seed, rows, metrics:\n%s", data)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(raw["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if got := metrics["emit_allocs_per_op"]; len(got) != 2 || got["value"] != 0.0 || got["unit"] != "count" {
		t.Fatalf("metric shape %v, want {value: 0, unit: count}", got)
	}
	var res Result[EmitRow]
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if want := (Result[EmitRow]{Experiment: "emit", Seed: 7, Rows: rows, Metrics: m}); !reflect.DeepEqual(res, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", res, want)
	}
}

// TestExperimentMetricsNeedASample: an experiment with no rows reports no
// metric, so the gate sees a missing measurement rather than a zero.
func TestExperimentMetricsNeedASample(t *testing.T) {
	for name, m := range map[string]Metrics{
		"churn":      ChurnMetrics(nil),
		"checkpoint": CkptMetrics(nil),
		"scale":      ScaleMetrics(nil),
		"emit":       EmitMetrics(nil),
		"wire":       WireMetrics(nil),
		"obs":        ObsMetrics(nil),
		"elastic":    ElasticMetrics(nil),
		"federation": FederationMetrics(nil),
		"placement":  PlacementMetrics(nil),
	} {
		if len(m) != 0 {
			t.Errorf("%s: metrics %v from no rows", name, m)
		}
	}
}
