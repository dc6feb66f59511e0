package bench

import (
	"fmt"
	"io"

	"mobistreams/internal/node"
)

// EmitRow is one emit-path measurement: the contract mode and its
// per-tuple allocation and latency cost through a compiled single-slot
// chain.
type EmitRow struct {
	Mode        string  `json:"mode"` // "context" or "legacy"
	AllocsPerOp float64 `json:"allocs_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
}

// benchIters is how many tuples or frames each emit, wire and obs
// measurement times.
const benchIters = 200000

// RunEmit benchmarks the operator emission path under both contracts: the
// emit-context contract must hold 0 allocs/op in steady state (the gate
// fails otherwise), with the legacy []Out adapter as the contrast row.
func RunEmit(w io.Writer) []EmitRow {
	var rows []EmitRow
	fmt.Fprintf(w, "\n=== Emit path: context contract vs legacy adapter (%d tuples) ===\n", benchIters)
	fmt.Fprintf(w, "%-10s %14s %12s\n", "mode", "allocs/op", "ns/op")
	for _, mode := range []struct {
		name   string
		legacy bool
	}{{"context", false}, {"legacy", true}} {
		res := node.RunEmitBench(mode.legacy, benchIters)
		rows = append(rows, EmitRow{Mode: mode.name, AllocsPerOp: res.AllocsPerOp, NsPerOp: res.NsPerOp})
		fmt.Fprintf(w, "%-10s %14.3f %12.1f\n", mode.name, res.AllocsPerOp, res.NsPerOp)
	}
	return rows
}

// EmitMetrics reduces the rows to the gate's metric: the emit-context
// contract's steady-state allocations per tuple, 0 by design.
func EmitMetrics(rows []EmitRow) Metrics {
	m := Metrics{}
	for _, r := range rows {
		if r.Mode == "context" {
			m["emit_allocs_per_op"] = Metric{Value: r.AllocsPerOp, Unit: "count"}
		}
	}
	return m
}
