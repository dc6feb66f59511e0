package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/region"
	"mobistreams/internal/scheduler"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
	"mobistreams/internal/workload"
)

// ChurnScenario configures one churn experiment run: a four-slot identity
// pipeline (every ingested tuple yields exactly one sink output, so tuple
// loss is measured exactly) under Poisson phone join/leave churn, run with
// the paper's reactive recovery alone or with the adaptive placement
// scheduler layered on top.
type ChurnScenario struct {
	Scheme      ft.Scheme
	SchedulerOn bool
	// Speedup is the clock scale (default 300).
	Speedup float64
	Seed    int64
}

// Fixed churn-run parameters. The region has 10 phones (4 active + 6 idle)
// on a 3 Mbps medium with 2% UDP loss, and ingests every 700 ms. The 30 s
// checkpoint period bounds reactive recovery's replay window, the tuples a
// recovery loses to sink-side suppression; the warmup lasts one period, so
// a committed checkpoint exists when churn starts. Churn then runs for
// churnMeasure and the pipeline tail drains for churnDrain. Leaves and joins
// are Poisson with means 20 s and 45 s; 60% of leaves are battery cliffs
// (150 J phones dropped to 8%) and the rest commuter walks at 4 m/s out of
// a 120 m disc.
const (
	churnPhones        = 10
	churnCkptPeriod    = 30 * time.Second
	churnMeasure       = 120 * time.Second
	churnDrain         = 15 * time.Second
	churnSourcePeriod  = 700 * time.Millisecond
	churnMeanLeave     = 20 * time.Second
	churnMeanJoin      = 45 * time.Second
	churnCliffShare    = 0.6
	churnCliffFraction = 0.08
	churnWalkSpeed     = 4
	churnRadiusM       = 120
	churnBatteryJoules = 150
	churnWiFiBps       = 3e6
	churnWiFiLoss      = 0.02
)

func (s *ChurnScenario) applyDefaults() {
	if s.Speedup <= 0 {
		s.Speedup = 300
	}
}

// ChurnOutcome is one churn run's result, JSON-tagged for the CI artifact.
type ChurnOutcome struct {
	Scheme        string  `json:"scheme"`
	Mode          string  `json:"mode"` // "reactive" or "scheduler"
	Ingested      int64   `json:"ingested"`
	Delivered     int64   `json:"delivered"`
	Lost          int64   `json:"tuples_lost"`
	Duplicates    int64   `json:"duplicates"`
	ThroughputTPS float64 `json:"throughput_tps"`
	DowntimeSec   float64 `json:"downtime_sec"`
	Migrations    int     `json:"migrations"`
	Recoveries    int     `json:"recoveries"`
	Departures    int     `json:"departures"`
	Joins         int     `json:"joins"`
	Dead          bool    `json:"region_dead"`
}

// churnGraph is the identity pipeline S -> M1 -> M2 -> K on four slots.
func churnGraph() (*graph.Graph, error) {
	var b graph.Builder
	b.AddOperator("S", "n1").AddOperator("M1", "n2").
		AddOperator("M2", "n3").AddOperator("K", "n4")
	b.Chain("S", "M1", "M2", "K")
	return b.Build()
}

func churnRegistry() operator.Registry {
	clone := func(t *tuple.Tuple) *tuple.Tuple { return t.Clone() }
	mapOp := func(id string, cost time.Duration) operator.Factory {
		return func() operator.Operator {
			m := operator.NewMap(id, clone)
			m.CostFn = operator.FixedCost(cost)
			return m
		}
	}
	return operator.Registry{
		"S":  mapOp("S", 100*time.Millisecond),
		"M1": mapOp("M1", 200*time.Millisecond),
		"M2": mapOp("M2", 200*time.Millisecond),
		"K":  mapOp("K", 100*time.Millisecond),
	}
}

// gapTracker accumulates sink-output downtime: simulated time inside the
// measurement window during which the inter-output gap exceeded the
// allowance (outages from recoveries, handoffs, urgent-mode detours).
type gapTracker struct {
	mu        sync.Mutex
	allowance time.Duration
	start     time.Duration // 0 until the window opens
	last      time.Duration
	downtime  time.Duration
}

func (g *gapTracker) open(now time.Duration) {
	g.mu.Lock()
	g.start, g.last = now, now
	g.mu.Unlock()
}

func (g *gapTracker) tick(now time.Duration, end time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.start == 0 || now <= g.last {
		return
	}
	if now > end {
		now = end
	}
	if gap := now - g.last; gap > g.allowance {
		g.downtime += gap - g.allowance
	}
	if now > g.last {
		g.last = now
	}
}

func (g *gapTracker) closeAt(end time.Duration) time.Duration {
	g.tick(end, end)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.downtime
}

// RunChurn executes one churn scenario to completion.
func RunChurn(s ChurnScenario) (ChurnOutcome, error) {
	s.applyDefaults()
	g, err := churnGraph()
	if err != nil {
		return ChurnOutcome{}, err
	}
	run := churnRun{
		graph: g, registry: churnRegistry(), scheme: s.Scheme,
		phones: churnPhones, sources: []string{"S"}, speedup: s.Speedup,
		ckptPeriod: churnCkptPeriod, measure: churnMeasure, drain: churnDrain,
		meanLeave: churnMeanLeave, seed: s.Seed,
	}
	mode := "reactive"
	if s.SchedulerOn {
		run.sched = churnScheduler(nil)
		mode = "scheduler"
	}
	o, err := runChurnRegion(run)
	return ChurnOutcome{
		Scheme: s.Scheme.String(), Mode: mode,
		Ingested: o.Ingested, Delivered: o.Delivered, Lost: o.Lost, Duplicates: o.Duplicates,
		ThroughputTPS: o.ThroughputTPS, DowntimeSec: o.DowntimeSec,
		Migrations: o.Migrations, Recoveries: o.Recoveries,
		Departures: o.Departures, Joins: o.Joins, Dead: o.Dead,
	}, err
}

// churnScheduler is the greedy scheduler both churn-driven experiments run,
// tuned to the churn workload's cliffs and walks.
func churnScheduler(ledger *scheduler.Cooldowns) *scheduler.Scheduler {
	return scheduler.New(scheduler.Config{
		BatteryHorizon: 60 * time.Second,
		LowFraction:    0.15,
		Cooldown:       20 * time.Second,
		Cooldowns:      ledger,
	})
}

// churnRun is what the churn and placement experiments vary: the graph,
// the population and channels, the ingest sources, the pacing and the
// placement policies.
type churnRun struct {
	graph    *graph.Graph
	registry operator.Registry
	scheme   ft.Scheme
	phones   int
	channels int
	// sources are the ingest operators, fed one tuple each in rotation.
	sources []string
	speedup float64
	seed    int64
	// ckptPeriod is also the warmup before the measurement window.
	ckptPeriod, measure, drain, meanLeave time.Duration
	// sched and planner are the placement policies; with neither, reactive
	// recovery runs alone.
	sched   *scheduler.Scheduler
	planner *scheduler.Planner
}

// runChurnRegion runs one region for either churn-driven experiment: it
// builds the controller and region, warms up for one checkpoint period,
// ingests one tuple per churnSourcePeriod under Poisson leaves (battery
// cliffs and commuter walks over the range boundary) and joins for the
// measurement window, drains the tail, and counts the outcome. The row it
// returns is the placement experiment's, a superset of the churn
// experiment's; Mode is left to the caller.
func runChurnRegion(c churnRun) (PlacementOutcome, error) {
	clk := clock.NewScaled(c.speedup)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{
		UpBitsPerSecond:   0.16e6,
		DownBitsPerSecond: 0.7e6,
		Latency:           80 * time.Millisecond,
		SharedBps:         2e6,
	})
	trace := func(format string, args ...interface{}) {
		if churnDebug != nil {
			churnDebug("%8.1fs "+format, append([]interface{}{clk.Now().Seconds()}, args...)...)
		}
	}
	ctrl := controller.New(controller.Config{
		Clock:            clk,
		Cell:             cell,
		Logf:             func(format string, args ...interface{}) { trace("ctrl: "+format, args...) },
		CheckpointPeriod: c.ckptPeriod,
		PingInterval:     30 * time.Second,
		PingTimeout:      10 * time.Second,
		DebounceWindow:   2 * time.Second,
		ScheduleTick:     5 * time.Second,
		Sched:            c.sched,
		Planner:          c.planner,
	})

	gaps := &gapTracker{allowance: 5 * churnSourcePeriod}
	var measureEnd atomic.Int64 // simulated ns; 0 until known
	r, err := region.New(region.Config{
		ID:                "r1",
		Graph:             c.graph,
		Registry:          c.registry,
		Scheme:            c.scheme,
		Phones:            c.phones,
		Clock:             clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: churnWiFiBps, LossProb: churnWiFiLoss, Channels: c.channels, Seed: c.seed},
		Cell:              cell,
		ControllerID:      ctrl.ID(),
		PhoneCfg:          phone.Config{BatteryJoules: churnBatteryJoules},
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: c.scheme.Kind == ft.MS,
		RadiusM:           churnRadiusM,
		OnSinkOutput: func(_ simnet.NodeID, _ *tuple.Tuple) {
			gaps.tick(clk.Now(), time.Duration(measureEnd.Load()))
		},
	})
	if err != nil {
		return PlacementOutcome{}, err
	}
	ctrl.AddRegion(r)
	r.Start()
	ctrl.Start()

	// Warm up: let the first checkpoint commit before churn starts.
	clk.Sleep(c.ckptPeriod)

	var ingested int64
	gen := workload.NewGenerator(clk)
	gen.StartBCPBus(func(_ string, v interface{}, _ int, _ string) {
		n := atomic.AddInt64(&ingested, 1)
		r.Ingest(c.sources[int((n-1)%int64(len(c.sources)))], v, 2048, "count")
	}, workload.BCPBusConfig{Period: churnSourcePeriod, Seed: c.seed})

	start := clk.Now()
	end := start + c.measure
	measureEnd.Store(int64(end))
	r.Throughput.Start(start)
	r.Latency.Reset()
	gaps.open(start)

	var churnMu sync.Mutex
	victimised := make(map[simnet.NodeID]bool)
	var joins int64
	slots := c.graph.Slots()
	churn := workload.NewGenerator(clk)
	churn.StartChurn(workload.ChurnHooks{
		Victim: func(rng *rand.Rand) (simnet.NodeID, bool) {
			slot := slots[rng.Intn(len(slots))]
			id, ok := r.Placement(slot)
			if !ok || r.Failed(id) || r.Departed(id) {
				return "", false
			}
			churnMu.Lock()
			defer churnMu.Unlock()
			if victimised[id] {
				return "", false
			}
			victimised[id] = true
			return id, true
		},
		Cliff: func(id simnet.NodeID, fraction float64) {
			trace("churn: cliff %s -> %.0f%%", id, fraction*100)
			if ph := r.Phone(id); ph != nil && !ph.Dead() {
				ph.Revive(fraction)
			}
		},
		Pos: func(id simnet.NodeID) phone.Position {
			if ph := r.Phone(id); ph != nil {
				return ph.Position()
			}
			return phone.Position{}
		},
		SetPos: func(id simnet.NodeID, p phone.Position) {
			if ph := r.Phone(id); ph != nil {
				ph.SetPosition(p)
			}
		},
		SetVel: func(id simnet.NodeID, vx, vy float64) {
			trace("churn: walk %s vel (%.1f, %.1f)", id, vx, vy)
			if ph := r.Phone(id); ph != nil {
				ph.SetVelocity(vx, vy)
			}
		},
		Departed: func(id simnet.NodeID) {
			trace("churn: %s crossed the boundary", id)
			r.DepartPhone(id)
			ctrl.NotifyDeparture(r.ID(), id)
		},
		Join: func(int) {
			r.AddPhone(phone.Config{BatteryJoules: churnBatteryJoules})
			atomic.AddInt64(&joins, 1)
		},
	}, workload.ChurnConfig{
		MeanLeave:     c.meanLeave,
		MeanJoin:      churnMeanJoin,
		CliffShare:    churnCliffShare,
		CliffFraction: churnCliffFraction,
		WalkSpeed:     churnWalkSpeed,
		RadiusM:       churnRadiusM,
		Seed:          c.seed,
	})

	clk.Sleep(c.measure)
	churn.Stop()
	gen.Stop()
	clk.Sleep(c.drain)

	rep := r.Report(clk.Now())
	commits, aborts := ctrl.PlanStats("r1")
	out := PlacementOutcome{
		Ingested:          atomic.LoadInt64(&ingested),
		Delivered:         r.Throughput.Count(),
		Duplicates:        r.DuplicateOutputs(),
		Migrations:        ctrl.Migrations("r1"),
		Recoveries:        ctrl.Recoveries("r1"),
		PlanCommits:       commits,
		PlanAborts:        aborts,
		CrossChannelShare: rep.CrossChannelShare,
		Departures:        ctrl.Departures("r1"),
		Joins:             int(atomic.LoadInt64(&joins)),
		Dead:              ctrl.RegionDead("r1"),
	}
	for _, a := range rep.ChannelAirtime {
		out.ChannelAirtimeSec = append(out.ChannelAirtimeSec, a.Seconds())
	}
	out.Lost = max(out.Ingested-out.Delivered, 0)
	out.ThroughputTPS = float64(out.Delivered) / c.measure.Seconds()
	out.DowntimeSec = gaps.closeAt(end).Seconds()
	r.Stop()
	ctrl.Stop()
	return out, nil
}

// ChurnSchemes is the default scheme sweep for the churn experiment.
var ChurnSchemes = []ft.Scheme{ft.Rep2Scheme, ft.Dist(2), ft.MSScheme}

// ChurnComparison runs reactive-only and scheduler-on under an identical
// churn schedule (same seed) for every scheme.
func ChurnComparison(base ChurnScenario, schemes []ft.Scheme) ([]ChurnOutcome, error) {
	if len(schemes) == 0 {
		schemes = ChurnSchemes
	}
	var rows []ChurnOutcome
	for _, sch := range schemes {
		for _, on := range []bool{false, true} {
			s := base
			s.Scheme = sch
			s.SchedulerOn = on
			o, err := RunChurn(s)
			if err != nil {
				return nil, fmt.Errorf("churn %s scheduler=%v: %w", sch, on, err)
			}
			rows = append(rows, o)
		}
	}
	return rows, nil
}

// ChurnMetrics reduces the churn rows to the gate's metric: the worst
// tuple loss across the scheduler-on rows.
func ChurnMetrics(rows []ChurnOutcome) Metrics {
	m := Metrics{}
	for _, o := range rows {
		if o.Mode == "scheduler" {
			m.keepMax("max_scheduler_tuple_loss", float64(o.Lost), "count")
		}
	}
	return m
}

// WriteChurnTable renders the comparison for humans.
func WriteChurnTable(w io.Writer, rows []ChurnOutcome) {
	fmt.Fprintln(w, "Churn — reactive recovery vs adaptive placement scheduler")
	fmt.Fprintf(w, "%-8s %-10s %10s %10s %6s %10s %11s %11s %6s\n",
		"scheme", "mode", "ingested", "delivered", "lost", "downtime", "migrations", "recoveries", "dead")
	for _, o := range rows {
		fmt.Fprintf(w, "%-8s %-10s %10d %10d %6d %9.1fs %11d %11d %6v\n",
			o.Scheme, o.Mode, o.Ingested, o.Delivered, o.Lost, o.DowntimeSec, o.Migrations, o.Recoveries, o.Dead)
	}
}

// churnDebug, when non-nil, receives churn event traces (probing only).
var churnDebug func(string, ...interface{})
