package main

import (
	"fmt"
	"math/rand"
	"time"

	bcpapp "mobistreams/internal/apps/bcp"
	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
)

// spec is one workload: how to deploy it and how to measure it. Times are
// simulated unless named wall.
type spec struct {
	name string
	// speedup maps simulated onto wall time. A host stall of d wall
	// seconds becomes d×speedup simulated seconds, so each workload uses
	// the highest speedup at which host stalls stay small against the
	// airtime and service times it measures.
	speedup float64
	warmup  time.Duration
	// drain bounds the wait for in-flight outputs after ingest stops; a
	// workload whose every input yields one output stops draining as soon
	// as all have arrived.
	drain time.Duration
	// gap is the outage threshold: sink silence longer than it counts
	// toward outage_s.
	gap time.Duration
	// oneToOne marks workloads where every ingested tuple must reach the
	// sink exactly once.
	oneToOne bool
	// slices splits the window for the per-slice medians of latency and
	// host cost; a workload whose fault is the point of the window keeps
	// it whole.
	slices int
	// reps is how many deployments, each with its own seed and in its own
	// process, share a measured run's time; their slices pool into the
	// medians.
	reps int
	// tail is the latency percentile reported as sim_lat_tail_ms: the
	// highest that leaves at least ten samples beyond it in each slice.
	tail   float64
	deploy func(d *deployment, seed int64) error
}

var specs = []*spec{
	{
		name: "tree64", speedup: 2, warmup: 3 * time.Second, drain: 20 * time.Second,
		gap: time.Second, oneToOne: true, slices: 2, reps: 4, tail: 99,
		deploy: func(d *deployment, seed int64) error { return deployTree(d, seed, 250*time.Millisecond) },
	},
	{
		name: "tree64-overload", speedup: 20, warmup: 5 * time.Second, drain: 300 * time.Second,
		gap: time.Second, oneToOne: true, slices: 4, reps: 4, tail: 99,
		deploy: func(d *deployment, seed int64) error { return deployTree(d, seed, 125*time.Millisecond) },
	},
	{
		name: "bcp-ms-fail", speedup: 100, warmup: 60 * time.Second, drain: 60 * time.Second,
		gap: 10 * time.Second, slices: 1, reps: 4, tail: 90,
		deploy: deployBCP,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// token is the payload of a tree tuple: which driver stream and which of
// its tuples it is. Every operator of the tree forwards the payload, so the
// sink can tell a tuple by its payload as well as by its (source, seq).
type token struct {
	stream, k int
}

func newCell(clk clock.Clock) *simnet.Cellular {
	return simnet.NewCellular(clk, simnet.CellularConfig{
		UpBitsPerSecond:   0.16e6,
		DownBitsPerSecond: 0.7e6,
		Latency:           80 * time.Millisecond,
		SharedBps:         2e6,
	})
}

// --- tree64 and tree64-overload ---

const treeFanIn = 8

// treeGraph is the 64-phone aggregation tree: 56 passthrough leaf sources
// S1..S56 on slots w1..w56, 7 fan-in-8 aggregators A1..A7 on a1..a7, and
// the sink K on k0. It is the tree of internal/bench's scale experiment,
// whose builders are unexported; the channel plan and the BCP victim order
// below are copied from there for the same reason.
func treeGraph() (*graph.Graph, operator.Registry, []string, error) {
	const leaves, aggs = 56, 7
	var b graph.Builder
	reg := operator.Registry{}
	add := func(op, slot string) {
		b.AddOperator(op, slot)
		reg[op] = func() operator.Operator { return operator.NewPassthrough(op) }
	}
	var srcs []string
	for i := 1; i <= leaves; i++ {
		add(fmt.Sprintf("S%d", i), fmt.Sprintf("w%d", i))
		srcs = append(srcs, fmt.Sprintf("S%d", i))
	}
	for j := 1; j <= aggs; j++ {
		add(fmt.Sprintf("A%d", j), fmt.Sprintf("a%d", j))
	}
	add("K", "k0")
	for i := 1; i <= leaves; i++ {
		b.Connect(fmt.Sprintf("S%d", i), fmt.Sprintf("A%d", (i-1)/treeFanIn+1))
	}
	for j := 1; j <= aggs; j++ {
		b.Connect(fmt.Sprintf("A%d", j), "K")
	}
	g, err := b.Build()
	return g, reg, srcs, err
}

// treeChannels is the per-neighbourhood channel plan: each aggregator and
// its eight leaves share a channel, neighbourhoods round-robin over all but
// the last channel, and the sink has the last one to itself. Phones map to
// slots in sorted slot order, as region.New places them.
func treeChannels(regionID string, g *graph.Graph, channels int) func(simnet.NodeID) int {
	byPhone := make(map[simnet.NodeID]int)
	for i, slot := range g.Slots() {
		var n int
		ch := channels - 1
		switch {
		case slot[0] == 'w':
			fmt.Sscanf(slot[1:], "%d", &n)
			ch = ((n - 1) / treeFanIn) % (channels - 1)
		case slot[0] == 'a':
			fmt.Sscanf(slot[1:], "%d", &n)
			ch = (n - 1) % (channels - 1)
		}
		byPhone[simnet.NodeID(fmt.Sprintf("%s/p%d", regionID, i+1))] = ch
	}
	return func(id simnet.NodeID) int {
		if ch, ok := byPhone[id]; ok {
			return ch
		}
		return -1
	}
}

func deployTree(d *deployment, seed int64, period time.Duration) error {
	g, reg, srcs, err := treeGraph()
	if err != nil {
		return err
	}
	r, err := region.New(region.Config{
		ID:       "tree",
		Graph:    g,
		Registry: d.registry(reg),
		Scheme:   ft.BaseScheme,
		Phones:   len(g.Slots()),
		Clock:    d.clk,
		WiFi: simnet.WiFiConfig{
			BitsPerSecond: 3e6,
			LossProb:      0.02,
			FrameOverhead: 600,
			Channels:      4,
			Assign:        treeChannels("tree", g, 4),
			Seed:          seed,
		},
		// The flood outlives a stock battery; energy is read as drawn joules.
		PhoneCfg:     phone.Config{BatteryJoules: 1e12},
		Obs:          d.obsRegistry(),
		OnSinkOutput: d.onSink,
	})
	if err != nil {
		return err
	}
	d.r = r
	// Each leaf sends one tuple in every period, at a seeded uniform
	// position within it: fixed per-leaf phases would make the batching,
	// and so the latency, depend on one draw of 56 phases.
	for i, src := range srcs {
		i := i
		d.streams = append(d.streams, stream{
			src: src, size: 1024, kind: "telemetry", period: period,
			jitter: rand.New(rand.NewSource(seed*1000 + int64(i))),
			value:  func(k int) interface{} { return token{i, k} },
		})
	}
	return nil
}

// --- bcp-ms-fail ---

// bcpFailures is the burst size injected mid-window.
const bcpFailures = 2

// bcpFramePeriod is the camera frame interval: at 2 s the medium and the
// counters run past capacity and latency grows for as long as a run lasts.
const bcpFramePeriod = 3 * time.Second

// bcpCkptPeriod is the checkpoint period; the burst lands bcpFaultPhase
// into a period, so every run replays the same span of preserved input.
const bcpCkptPeriod, bcpFaultPhase = 60 * time.Second, 30 * time.Second

func deployBCP(d *deployment, seed int64) error {
	g, err := bcpapp.Graph()
	if err != nil {
		return err
	}
	d.cell = newCell(d.clk)
	d.ctrl = controller.New(controller.Config{
		Clock:            d.clk,
		Cell:             d.cell,
		CheckpointPeriod: bcpCkptPeriod,
		PingInterval:     30 * time.Second,
		PingTimeout:      10 * time.Second,
		DebounceWindow:   2 * time.Second,
	})
	r, err := region.New(region.Config{
		ID:                "bcp",
		Graph:             g,
		Registry:          d.registry(bcpapp.Registry(bcpapp.Params{})),
		Scheme:            ft.MSScheme,
		Phones:            16,
		Clock:             d.clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: 3e6, LossProb: 0.02, Seed: seed},
		Cell:              d.cell,
		ControllerID:      d.ctrl.ID(),
		PhoneCfg:          phone.Config{BatteryJoules: 20e3},
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: true,
		Obs:               d.obsRegistry(),
		OnSinkOutput:      d.onSink,
	})
	if err != nil {
		return err
	}
	d.r = r
	d.ctrl.AddRegion(r)
	rng := rand.New(rand.NewSource(seed))
	people := rand.New(rand.NewSource(seed + 1))
	onBoard := rand.New(rand.NewSource(seed + 2))
	d.streams = []stream{
		{src: "S1", size: 180 << 10, kind: "image", period: bcpFramePeriod,
			offset: time.Duration(rng.Int63n(int64(bcpFramePeriod))),
			value:  func(int) interface{} { return bcpapp.Frame{Planted: people.Intn(7)} }},
		{src: "S0", size: 512, kind: "businfo", period: 30 * time.Second,
			offset: time.Duration(rng.Int63n(int64(30 * time.Second))),
			value: func(k int) interface{} {
				return bcpapp.BusInfo{OnBoard: 10 + float64(onBoard.Intn(30)), Corrupt: bcpCorrupt(k)}
			}},
	}
	d.faultAt = func(after time.Duration) time.Duration {
		k := (after - d.ctrlStart - bcpFaultPhase + bcpCkptPeriod - 1) / bcpCkptPeriod
		return d.ctrlStart + bcpFaultPhase + k*bcpCkptPeriod
	}
	d.inject = func() {
		for _, slot := range victimSlots(g)[:bcpFailures] {
			if id, ok := r.Placement(slot); ok {
				r.FailPhone(id)
			}
		}
	}
	return nil
}

// bcpCorrupt plants sensor noise: every tenth bus reading is corrupt, and
// the noise filter must keep it from ever reaching the sink.
func bcpCorrupt(k int) bool { return k%10 == 9 }

// victimSlots orders slots computing first, then sinks, then sources, so a
// small burst hits the middle of the pipeline.
func victimSlots(g *graph.Graph) []string {
	role := func(slot string) int {
		for _, s := range g.SourceSlots() {
			if s == slot {
				return 2
			}
		}
		for _, s := range g.SinkSlots() {
			if s == slot {
				return 1
			}
		}
		return 0
	}
	var out []string
	for want := 0; want < 3; want++ {
		for _, s := range g.Slots() {
			if role(s) == want {
				out = append(out, s)
			}
		}
	}
	return out
}

// obsRegistry gives the region a journal large enough to hold every
// checkpoint event of a run, so commit lag can be read from it.
func (d *deployment) obsRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Journal = obs.NewJournal(1 << 16)
	return reg
}
