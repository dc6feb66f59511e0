package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// Metric is one gate number and its unit, the {value, unit} shape of
// perfbench's summary line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps a metric name to its measurement. An experiment leaves a
// metric out when its rows hold no sample for it, so the gate can tell a
// missing measurement from a zero.
type Metrics map[string]Metric

// Result is the one schema every gated experiment writes: its typed rows
// and the metrics the regression gate reads, reduced from those rows.
type Result[R any] struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Rows       []R     `json:"rows"`
	Metrics    Metrics `json:"metrics"`
}

// WriteResult writes dir/<experiment>.json, creating dir if needed, and
// returns the path it wrote.
func WriteResult[R any](dir, experiment string, seed int64, rows []R, m Metrics) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(Result[R]{Experiment: experiment, Seed: seed, Rows: rows, Metrics: m}, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, experiment+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// keepMax records v under name unless a larger value is already there.
func (m Metrics) keepMax(name string, v float64, unit string) {
	if cur, ok := m[name]; !ok || v > cur.Value {
		m[name] = Metric{Value: v, Unit: unit}
	}
}
