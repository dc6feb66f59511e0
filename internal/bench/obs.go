package bench

import (
	"fmt"
	"io"

	"mobistreams/internal/node"
)

// ObsRow is one instrumentation-overhead measurement of the emit hot path.
type ObsRow struct {
	// Per-tuple hot-path latency with observability absent, with
	// histograms on and sampling off, and with every tuple traced.
	OffNsPerOp   float64 `json:"off_ns_per_op"`
	HistNsPerOp  float64 `json:"hist_ns_per_op"`
	TraceNsPerOp float64 `json:"trace_ns_per_op"`
	// ObsOverheadPct is the always-on histogram tax: (hist-off)/off*100.
	ObsOverheadPct float64 `json:"obs_overhead_pct"`
	// TraceAllocsPerOp is the sampling-off allocation count — the
	// zero-allocs invariant with tracing compiled in; pinned at 0.
	TraceAllocsPerOp float64 `json:"trace_allocs_per_op"`
	// TracedAllocsPerOp is the every-tuple-traced allocation count
	// (informational: sampled tracing is off the steady-state path).
	TracedAllocsPerOp float64 `json:"traced_allocs_per_op"`
	Spans             int     `json:"spans"`
}

// RunObs benchmarks the observability layer's hot-path overhead across the
// off / histogram / full-trace modes. It returns one row.
func RunObs(w io.Writer) []ObsRow {
	res := node.RunObsBench(benchIters)
	fmt.Fprintf(w, "\n=== Observability overhead on the emit path (%d tuples) ===\n", res.Iters)
	fmt.Fprintf(w, "%-22s %12s %14s\n", "mode", "ns/op", "allocs/op")
	fmt.Fprintf(w, "%-22s %12.1f %14s\n", "obs off", res.OffNsPerOp, "-")
	fmt.Fprintf(w, "%-22s %12.1f %14.3f\n", "histograms (no trace)", res.HistNsPerOp, res.HistAllocsPerOp)
	fmt.Fprintf(w, "%-22s %12.1f %14.3f\n", "every tuple traced", res.TraceNsPerOp, res.TraceAllocsPerOp)
	fmt.Fprintf(w, "histogram overhead: %.1f%%; spans recorded: %d\n", res.OverheadPct, res.Spans)
	return []ObsRow{{
		OffNsPerOp:        res.OffNsPerOp,
		HistNsPerOp:       res.HistNsPerOp,
		TraceNsPerOp:      res.TraceNsPerOp,
		ObsOverheadPct:    res.OverheadPct,
		TraceAllocsPerOp:  res.HistAllocsPerOp,
		TracedAllocsPerOp: res.TraceAllocsPerOp,
		Spans:             res.Spans,
	}}
}

// ObsMetrics reduces the measurement to the gate's metrics: the histogram
// overhead, and the sampling-off path's allocations per tuple.
func ObsMetrics(rows []ObsRow) Metrics {
	m := Metrics{}
	for _, r := range rows {
		m["obs_overhead_pct"] = Metric{Value: r.ObsOverheadPct, Unit: "%"}
		m["trace_allocs_per_op"] = Metric{Value: r.TraceAllocsPerOp, Unit: "count"}
	}
	return m
}
