package bench

import (
	"fmt"
	"io"
	"time"

	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/placement"
	"mobistreams/internal/scheduler"
	"mobistreams/internal/tuple"
)

// PlacementScenario configures one placement-planner experiment run: several
// independent identity pipelines spread over a multi-channel WiFi region
// under Poisson churn, scheduled either by the greedy per-phone scheduler or by
// the topology-aware placement planner. Round-robin channel assignment
// scatters every pipeline across channels at start, so every hop initially
// burns two cells of airtime — the structural waste the planner's
// pack-to-empty pass exists to remove, and the greedy baseline never sees.
type PlacementScenario struct {
	// Planner selects the topology-aware planner; false runs the greedy
	// scheduler alone (the baseline arm).
	Planner bool
	// Phones is the region population (default 128).
	Phones int
	// Pipelines is the number of independent 3-slot chains (default 4).
	Pipelines int
	// CheckpointPeriod (default 30 s) also sets the warmup that precedes
	// the measurement window; Measure is the churn window (default 120 s);
	// Drain flushes the tail (default 15 s).
	CheckpointPeriod time.Duration
	Measure          time.Duration
	Drain            time.Duration
	// MeanLeave is the Poisson mean inter-leave time (default 20 s).
	MeanLeave time.Duration
	Seed      int64
}

// placementChannels is the WiFi channel/AP domain count. The rest of the
// workload (ingest period, joins, battery cliffs, commuter walks, medium)
// is the churn experiment's.
const placementChannels = 4

// placementSpeedup is the clock scale. Plan execution is paced against
// simulated time — a migration's transfer deadline is 60 simulated
// seconds — so the speedup bounds how much wall-clock scheduling stall a
// plan step can absorb before it spuriously times out and aborts the plan.
// 150 keeps the whole comparison under ~15 s of wall time while giving
// each step hundreds of milliseconds of slack on a contended CI runner.
const placementSpeedup = 150

func (s *PlacementScenario) applyDefaults() {
	if s.Phones <= 0 {
		s.Phones = 128
	}
	if s.Pipelines <= 0 {
		s.Pipelines = 4
	}
	if s.CheckpointPeriod <= 0 {
		s.CheckpointPeriod = churnCkptPeriod
	}
	if s.Measure <= 0 {
		s.Measure = churnMeasure
	}
	if s.Drain <= 0 {
		s.Drain = churnDrain
	}
	if s.MeanLeave <= 0 {
		s.MeanLeave = churnMeanLeave
	}
}

// PlacementOutcome is one placement run's result, JSON-tagged for the CI
// artifact.
type PlacementOutcome struct {
	Mode              string    `json:"mode"` // "greedy" or "planner"
	Ingested          int64     `json:"ingested"`
	Delivered         int64     `json:"delivered"`
	Lost              int64     `json:"tuples_lost"`
	Duplicates        int64     `json:"duplicates"`
	ThroughputTPS     float64   `json:"throughput_tps"`
	DowntimeSec       float64   `json:"downtime_sec"`
	Migrations        int       `json:"migrations"`
	Recoveries        int       `json:"recoveries"`
	PlanCommits       int       `json:"plan_commits"`
	PlanAborts        int       `json:"plan_aborts"`
	CrossChannelShare float64   `json:"cross_channel_share"`
	ChannelAirtimeSec []float64 `json:"channel_airtime_sec"`
	Departures        int       `json:"departures"`
	Joins             int       `json:"joins"`
	Dead              bool      `json:"region_dead"`
}

// placementGraph builds n independent identity chains c<i>a -> c<i>b ->
// c<i>c, one operator per slot. Slot names sort chain-major, so the region's
// in-order initial placement puts each chain on consecutive phones — and
// round-robin channel assignment therefore fans every chain out across
// channels.
func placementGraph(pipelines int) (*graph.Graph, error) {
	var b graph.Builder
	for i := 1; i <= pipelines; i++ {
		src := fmt.Sprintf("S%d", i)
		mid := fmt.Sprintf("M%d", i)
		sink := fmt.Sprintf("K%d", i)
		b.AddOperator(src, fmt.Sprintf("c%da", i))
		b.AddOperator(mid, fmt.Sprintf("c%db", i))
		b.AddOperator(sink, fmt.Sprintf("c%dc", i))
		b.Chain(src, mid, sink)
	}
	return b.Build()
}

func placementRegistry(pipelines int) operator.Registry {
	clone := func(t *tuple.Tuple) *tuple.Tuple { return t.Clone() }
	mapOp := func(id string, cost time.Duration) operator.Factory {
		return func() operator.Operator {
			m := operator.NewMap(id, clone)
			m.CostFn = operator.FixedCost(cost)
			return m
		}
	}
	reg := operator.Registry{}
	for i := 1; i <= pipelines; i++ {
		reg[fmt.Sprintf("S%d", i)] = mapOp(fmt.Sprintf("S%d", i), 100*time.Millisecond)
		reg[fmt.Sprintf("M%d", i)] = mapOp(fmt.Sprintf("M%d", i), 200*time.Millisecond)
		reg[fmt.Sprintf("K%d", i)] = mapOp(fmt.Sprintf("K%d", i), 100*time.Millisecond)
	}
	return reg
}

// RunPlacement executes one placement scenario to completion.
func RunPlacement(s PlacementScenario) (PlacementOutcome, error) {
	s.applyDefaults()
	g, err := placementGraph(s.Pipelines)
	if err != nil {
		return PlacementOutcome{}, err
	}
	sources := make([]string, s.Pipelines)
	for i := range sources {
		sources[i] = fmt.Sprintf("S%d", i+1)
	}
	ledger := scheduler.NewCooldowns()
	run := churnRun{
		graph: g, registry: placementRegistry(s.Pipelines), scheme: ft.MSScheme,
		phones: s.Phones, channels: placementChannels, sources: sources,
		speedup: placementSpeedup, ckptPeriod: s.CheckpointPeriod, measure: s.Measure,
		drain: s.Drain, meanLeave: s.MeanLeave, seed: s.Seed,
		sched: churnScheduler(ledger),
	}
	mode := "greedy"
	if s.Planner {
		run.planner = scheduler.NewPlanner(placement.New(placement.Config{
			SparesPerDomain: 1,
			HazardHorizon:   75 * time.Second,
			MaxMigrations:   4,
		}), ledger)
		run.planner.Cooldown = 20 * time.Second
		mode = "planner"
	}
	out, err := runChurnRegion(run)
	out.Mode = mode
	return out, err
}

// PlacementComparison runs the greedy baseline and the planner under an
// identical churn schedule (same seed).
func PlacementComparison(base PlacementScenario) ([]PlacementOutcome, error) {
	var rows []PlacementOutcome
	for _, planner := range []bool{false, true} {
		s := base
		s.Planner = planner
		o, err := RunPlacement(s)
		if err != nil {
			return nil, fmt.Errorf("placement planner=%v: %w", planner, err)
		}
		rows = append(rows, o)
	}
	return rows, nil
}

// PlacementMetrics reduces the greedy/planner pair to the gate's
// metrics. placement_loss_vs_greedy is the planner arm's tuple loss over
// the greedy arm's (floored at one tuple), so the gate tracks the relative
// claim rather than an absolute count that moves with the churn schedule.
// placement_cross_channel_cut_vs_greedy is greedy's cross-channel airtime
// share minus the planner's: repacking removes cross-cell hops, so it must
// stay positive. placement_planner_duplicates is the planner arm's
// duplicate outputs.
func PlacementMetrics(rows []PlacementOutcome) Metrics {
	var greedy, planner *PlacementOutcome
	for i := range rows {
		switch rows[i].Mode {
		case "greedy":
			greedy = &rows[i]
		case "planner":
			planner = &rows[i]
		}
	}
	m := Metrics{}
	if planner != nil {
		m["placement_planner_duplicates"] = Metric{Value: float64(planner.Duplicates), Unit: "count"}
	}
	if greedy != nil && planner != nil {
		greedyLost := max(greedy.Lost, 1)
		m["placement_loss_vs_greedy"] = Metric{Value: float64(planner.Lost) / float64(greedyLost), Unit: "ratio"}
		m["placement_cross_channel_cut_vs_greedy"] = Metric{Value: greedy.CrossChannelShare - planner.CrossChannelShare, Unit: "ratio"}
	}
	return m
}

// WritePlacementTable renders the comparison for humans.
func WritePlacementTable(w io.Writer, rows []PlacementOutcome) {
	fmt.Fprintln(w, "Placement — greedy scheduler vs topology-aware planner")
	fmt.Fprintf(w, "%-8s %9s %10s %5s %9s %11s %11s %7s %7s %10s\n",
		"mode", "ingested", "delivered", "lost", "downtime", "migrations", "recoveries", "commit", "abort", "cross")
	for _, o := range rows {
		fmt.Fprintf(w, "%-8s %9d %10d %5d %8.1fs %11d %11d %7d %7d %9.1f%%\n",
			o.Mode, o.Ingested, o.Delivered, o.Lost, o.DowntimeSec,
			o.Migrations, o.Recoveries, o.PlanCommits, o.PlanAborts, o.CrossChannelShare*100)
	}
}
