package bench

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/node"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/internal/workload"
)

// CkptScenario configures one checkpoint-pipeline experiment run: a
// three-slot pipeline whose middle operator carries StateBytes of state,
// checkpointed under the MobiStreams token protocol either with the
// synchronous full-blob pipeline (FullOnly) or the incremental-async one.
type CkptScenario struct {
	// StateBytes is the heavy operator's modelled state size.
	StateBytes int
	// FullOnly selects the synchronous full-blob baseline.
	FullOnly bool
	// Speedup is the clock scale (default 200).
	Speedup float64
	// Measure is the measurement window (default 65 s — three
	// checkpoints per slot).
	Measure time.Duration
	Seed    int64
}

// Fixed checkpoint-run parameters: 6 phones (3 active + 3 idle), token
// checkpoints every 20 s, a 10 s warmup, ingest every 500 ms, and a 20 Mbps
// medium (multi-MB blobs must fit the period) with 2% UDP loss.
const (
	ckptPhones       = 6
	ckptPeriod       = 20 * time.Second
	ckptWarmup       = 10 * time.Second
	ckptSourcePeriod = 500 * time.Millisecond
	ckptWiFiBps      = 20e6
	ckptWiFiLoss     = 0.02
)

func (s *CkptScenario) applyDefaults() {
	if s.StateBytes <= 0 {
		s.StateBytes = 1 << 20
	}
	if s.Speedup <= 0 {
		s.Speedup = 200
	}
	if s.Measure <= 0 {
		s.Measure = 65 * time.Second
	}
}

// CkptOutcome is one run's result, JSON-tagged for the CI artifact.
type CkptOutcome struct {
	Mode          string  `json:"mode"` // "full" or "incremental"
	StateBytes    int     `json:"state_bytes"`
	Checkpoints   int64   `json:"checkpoints"`
	PauseMeanMs   float64 `json:"pause_mean_ms"`
	PauseMaxMs    float64 `json:"pause_max_ms"`
	BlobBytes     int64   `json:"blob_bytes"`
	FullBytes     int64   `json:"full_state_bytes"`
	DeltaRatio    float64 `json:"delta_ratio"`
	DeltaBlobs    int64   `json:"delta_blobs"`
	FullBlobs     int64   `json:"full_blobs"`
	ThroughputTPS float64 `json:"throughput_tps"`
}

// ckptGraph is the pipeline S -> W -> K on three slots; W carries the
// heavy state.
func ckptGraph() (*graph.Graph, error) {
	var b graph.Builder
	b.AddOperator("S", "n1").AddOperator("W", "n2").AddOperator("K", "n3")
	b.Chain("S", "W", "K")
	return b.Build()
}

func ckptRegistry(stateBytes int) operator.Registry {
	clone := func(t *tuple.Tuple) *tuple.Tuple { return t.Clone() }
	light := func(id string) operator.Factory {
		return func() operator.Operator {
			m := operator.NewMap(id, clone)
			m.CostFn = operator.FixedCost(50 * time.Millisecond)
			return m
		}
	}
	return operator.Registry{
		"S": light("S"),
		"K": light("K"),
		// W models a windowed/learned-model operator: a small mutable
		// cursor (the Map counter) over StateBytes of state that is
		// static between checkpoints — the shape incremental
		// checkpointing exists for (cf. BCP's counter state).
		"W": func() operator.Operator {
			m := operator.NewMap("W", clone)
			m.CostFn = operator.FixedCost(150 * time.Millisecond)
			m.SizeFn = func() int { return stateBytes }
			return m
		},
	}
}

// RunCkpt executes one checkpoint-pipeline scenario to completion.
func RunCkpt(s CkptScenario) (CkptOutcome, error) {
	s.applyDefaults()
	g, err := ckptGraph()
	if err != nil {
		return CkptOutcome{}, err
	}
	clk := clock.NewScaled(s.Speedup)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{
		UpBitsPerSecond:   0.16e6,
		DownBitsPerSecond: 0.7e6,
		Latency:           80 * time.Millisecond,
		SharedBps:         2e6,
	})
	ctrl := controller.New(controller.Config{
		Clock:            clk,
		Cell:             cell,
		CheckpointPeriod: ckptPeriod,
		PingInterval:     30 * time.Second,
		PingTimeout:      10 * time.Second,
		DebounceWindow:   2 * time.Second,
	})
	r, err := region.New(region.Config{
		ID:                "r1",
		Graph:             g,
		Registry:          ckptRegistry(s.StateBytes),
		Scheme:            ft.MSScheme,
		Phones:            ckptPhones,
		Clock:             clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: ckptWiFiBps, LossProb: ckptWiFiLoss, Seed: s.Seed},
		Cell:              cell,
		ControllerID:      ctrl.ID(),
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: true,
		Checkpoint:        node.CheckpointConfig{FullOnly: s.FullOnly},
	})
	if err != nil {
		return CkptOutcome{}, err
	}
	ctrl.AddRegion(r)
	r.Start()
	ctrl.Start()

	var ingested int64
	gen := workload.NewGenerator(clk)
	gen.StartBCPBus(func(_ string, v interface{}, _ int, _ string) {
		atomic.AddInt64(&ingested, 1)
		r.Ingest("S", v, 2048, "count")
	}, workload.BCPBusConfig{Period: ckptSourcePeriod, Seed: s.Seed})

	clk.Sleep(ckptWarmup)
	r.Throughput.Start(clk.Now())
	r.CkptStats().Reset()
	clk.Sleep(s.Measure)

	st := r.CkptStats()
	blobBytes, fullBytes := st.Bytes()
	mode := "incremental"
	if s.FullOnly {
		mode = "full"
	}
	out := CkptOutcome{
		Mode:          mode,
		StateBytes:    s.StateBytes,
		Checkpoints:   st.Count(),
		PauseMeanMs:   float64(st.PauseMean()) / float64(time.Millisecond),
		PauseMaxMs:    float64(st.PauseMax()) / float64(time.Millisecond),
		BlobBytes:     blobBytes,
		FullBytes:     fullBytes,
		DeltaRatio:    st.DeltaRatio(),
		DeltaBlobs:    st.DeltaBlobs(),
		FullBlobs:     st.FullBlobs(),
		ThroughputTPS: r.Throughput.PerSecond(clk.Now()),
	}
	gen.Stop()
	r.Stop()
	ctrl.Stop()
	return out, nil
}

// CkptStateSizes is the default state-size sweep (64 KB to 4 MB).
var CkptStateSizes = []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}

// CkptComparison runs the full-blob baseline and the incremental-async
// pipeline across the state-size sweep under identical seeds.
func CkptComparison(base CkptScenario, sizes []int) ([]CkptOutcome, error) {
	if len(sizes) == 0 {
		sizes = CkptStateSizes
	}
	var rows []CkptOutcome
	for _, size := range sizes {
		for _, full := range []bool{true, false} {
			s := base
			s.StateBytes = size
			s.FullOnly = full
			o, err := RunCkpt(s)
			if err != nil {
				return nil, fmt.Errorf("checkpoint state=%d full=%v: %w", size, full, err)
			}
			rows = append(rows, o)
		}
	}
	return rows, nil
}

// CkptMetrics reduces the checkpoint rows to the gate's metric, the
// incremental pipeline's mean pause at the largest state size, plus the
// headline pause cut there: full-blob mean pause over incremental.
func CkptMetrics(rows []CkptOutcome) Metrics {
	largest := 0
	for _, o := range rows {
		if o.StateBytes > largest {
			largest = o.StateBytes
		}
	}
	var full, incr float64
	for _, o := range rows {
		if o.StateBytes != largest {
			continue
		}
		if o.Mode == "full" {
			full = o.PauseMeanMs
		} else {
			incr = o.PauseMeanMs
		}
	}
	m := Metrics{}
	if incr > 0 {
		m["incr_pause_mean_ms_largest"] = Metric{Value: incr, Unit: "ms"}
		if full > 0 {
			m["pause_cut_at_largest"] = Metric{Value: full / incr, Unit: "ratio"}
		}
	}
	return m
}

// WriteCkptTable renders the comparison for humans.
func WriteCkptTable(w io.Writer, rows []CkptOutcome) {
	fmt.Fprintln(w, "Checkpoint — synchronous full-blob vs incremental-async delta chains")
	fmt.Fprintf(w, "%-12s %10s %6s %12s %12s %12s %7s %8s\n",
		"mode", "state", "ckpts", "pause mean", "pause max", "blob bytes", "delta", "tput t/s")
	for _, o := range rows {
		fmt.Fprintf(w, "%-12s %9.0fK %6d %10.2fms %10.2fms %12d %7.2f %8.2f\n",
			o.Mode, float64(o.StateBytes)/1024, o.Checkpoints, o.PauseMeanMs, o.PauseMaxMs,
			o.BlobBytes, o.DeltaRatio, o.ThroughputTPS)
	}
	if cut, ok := CkptMetrics(rows)["pause_cut_at_largest"]; ok {
		fmt.Fprintf(w, "pause cut at largest state: %.1fx\n", cut.Value)
	}
}
