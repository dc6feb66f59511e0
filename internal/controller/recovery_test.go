package controller

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/ft"
	"mobistreams/internal/graph"
	"mobistreams/internal/node"
	"mobistreams/internal/obs"
	"mobistreams/internal/operator"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// rig is one MS region under a controller: Fig. 5's diamond A -> B ->
// {C, D} -> E on slots n1..n5, where E joins the branches by sequence
// number, so ingest k yields exactly one output with Seq k. Periodic
// checkpoints are off and pings run every ping period (an hour: off):
// every other failure report and checkpoint in a scenario is the test's
// own.
type rig struct {
	c *Controller
	r *region.Region

	mu   sync.Mutex
	outs map[uint64]int // sink publications per ingest sequence
	sent int
}

func newRig(t *testing.T, phones int, ping time.Duration) *rig {
	t.Helper()
	var b graph.Builder
	b.AddOperator("A", "n1").AddOperator("B", "n2").AddOperator("C", "n3").
		AddOperator("D", "n4").AddOperator("E", "n5")
	b.Connect("A", "B").Connect("B", "C").Connect("B", "D").
		Connect("C", "E").Connect("D", "E")
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	clone := func(in *tuple.Tuple) *tuple.Tuple { return in.Clone() }
	reg := operator.Registry{
		"A": func() operator.Operator { return operator.NewPassthrough("A") },
		"B": func() operator.Operator { return operator.NewPassthrough("B") },
		"C": func() operator.Operator { return operator.NewMap("C", clone) },
		"D": func() operator.Operator { return operator.NewMap("D", clone) },
		"E": func() operator.Operator {
			return operator.NewJoin("E", "C", "D", func(l, r *tuple.Tuple) *tuple.Tuple { return l.Clone() })
		},
	}
	clk := clock.NewScaled(300)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{UpBitsPerSecond: 8e6, DownBitsPerSecond: 8e6})
	x := &rig{outs: make(map[uint64]int)}
	x.c = New(Config{
		Clock:            clk,
		Cell:             cell,
		CheckpointPeriod: time.Hour,
		PingInterval:     ping,
		DebounceWindow:   2 * time.Second,
	})
	x.r, err = region.New(region.Config{
		ID:                "r1",
		Graph:             g,
		Registry:          reg,
		Scheme:            ft.MSScheme,
		Phones:            phones,
		Clock:             clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: 100e6},
		Cell:              cell,
		ControllerID:      x.c.ID(),
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: true,
		Obs:               obs.NewRegistry(),
		OnSinkOutput: func(_ simnet.NodeID, t *tuple.Tuple) {
			x.mu.Lock()
			x.outs[t.Seq]++
			x.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	x.c.AddRegion(x.r)
	x.r.Start()
	x.c.Start()
	t.Cleanup(func() {
		x.r.Stop()
		x.c.Stop()
	})
	return x
}

func (x *rig) ingest(n int) {
	for i := 0; i < n; i++ {
		x.sent++
		x.r.Ingest("A", fmt.Sprintf("v%d", x.sent), 1024, "test")
	}
}

// outputs returns a copy of the sink publications so far.
func (x *rig) outputs() map[uint64]int {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make(map[uint64]int, len(x.outs))
	for k, v := range x.outs {
		out[k] = v
	}
	return out
}

// await polls cond until it holds; the wall deadline only bounds a hang.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (x *rig) awaitOutputs(t *testing.T, n int) {
	t.Helper()
	await(t, fmt.Sprintf("%d outputs", n), func() bool { return len(x.outputs()) >= n })
}

// host returns the phone hosting slot.
func (x *rig) host(t *testing.T, slot string) simnet.NodeID {
	t.Helper()
	pid, ok := x.r.Placement(slot)
	if !ok {
		t.Fatalf("slot %s has no placement", slot)
	}
	return pid
}

// reportFailure delivers one neighbour report that phone observed is down,
// as the node upstream of it would send.
func (x *rig) reportFailure(t *testing.T, observed simnet.NodeID) {
	x.c.handleReport(node.Report{Type: node.RepFailure, Phone: x.host(t, "n1"), Observed: observed})
}

// events returns the region journal's events of kind.
func (x *rig) events(kind string) []obs.Event {
	var out []obs.Event
	for _, e := range x.r.Obs().Journal.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// prologue brings the region to a committed checkpoint with input
// published after it: 10 outputs, checkpoint, 10 more. The second ten are
// what a recovery replays from preserved input.
func (x *rig) prologue(t *testing.T) {
	t.Helper()
	x.ingest(10)
	x.awaitOutputs(t, 10)
	v := x.c.TriggerCheckpoint("r1")
	if v == 0 {
		t.Fatal("checkpoint did not start")
	}
	await(t, "checkpoint commit", func() bool { return x.c.Committed("r1") >= v })
	x.ingest(10)
	x.awaitOutputs(t, 20)
}

// burstRun runs the shared scenario — prologue, then (when victims are
// given) crash every victim slot's host and report only the first before
// recovery starts, then 10 more inputs after catch-up — and returns the
// sink publications.
func burstRun(t *testing.T, victims ...string) (*rig, map[uint64]int) {
	x := newRig(t, 8, time.Hour)
	x.prologue(t)
	if len(victims) > 0 {
		var hosts []simnet.NodeID
		for _, s := range victims {
			hosts = append(hosts, x.host(t, s))
		}
		for _, pid := range hosts {
			x.r.FailPhone(pid)
		}
		x.reportFailure(t, hosts[0])
		await(t, "recovery and catch-up", func() bool { return x.c.CatchUpCount("r1", 1) > 0 })
	}
	x.ingest(10)
	x.awaitOutputs(t, 30)
	return x, x.outputs()
}

// TestBurstFoldsIntoOneRecovery crashes B and C together. Only B's
// failure is reported before recovery starts; nothing can report C, whose
// only upstream is B. The pause round finds C silent and folds it in: one
// recovery re-hosts both slots, and the sink publishes exactly what a
// no-fault run on the same inputs publishes, each output once.
func TestBurstFoldsIntoOneRecovery(t *testing.T) {
	_, want := burstRun(t)
	x, got := burstRun(t, "n2", "n3")

	if n := x.c.Recoveries("r1"); n != 1 {
		t.Fatalf("recoveries = %d, want 1 for one burst", n)
	}
	if x.c.RegionDead("r1") {
		t.Fatal("region died")
	}
	b, c := x.host(t, "n2"), x.host(t, "n3")
	if b == c || x.r.Failed(b) || x.r.Failed(c) {
		t.Fatalf("n2 on %s (failed %v), n3 on %s (failed %v): want distinct live replacements",
			b, x.r.Failed(b), c, x.r.Failed(c))
	}
	if folds := x.events("recover.fold"); len(folds) != 1 || folds[0].Slot != "n3" {
		t.Fatalf("fold events = %+v, want one for n3", folds)
	}
	if len(x.events("recover.begin")) != 1 || len(x.events("recover.done")) != 1 {
		t.Fatalf("journal: %d recover.begin, %d recover.done, want 1 each",
			len(x.events("recover.begin")), len(x.events("recover.done")))
	}
	if len(got) != len(want) {
		t.Fatalf("published %d distinct outputs, no-fault run %d", len(got), len(want))
	}
	for seq, n := range got {
		if want[seq] != 1 || n != 1 {
			t.Fatalf("output %d published %d times, no-fault run %d", seq, n, want[seq])
		}
	}
	if d := x.r.DuplicateOutputs(); d != 0 {
		t.Fatalf("sink suppressed %d duplicates, want 0", d)
	}
}

// TestBurstBeyondIdlePoolKillsRegion crashes B, C and D with two idle
// phones: B alone is recoverable, but once the pause round folds C and D
// the burst needs three replacements and the region is bypassed.
func TestBurstBeyondIdlePoolKillsRegion(t *testing.T) {
	x := newRig(t, 7, time.Hour)
	x.prologue(t)
	hosts := []simnet.NodeID{x.host(t, "n2"), x.host(t, "n3"), x.host(t, "n4")}
	for _, pid := range hosts {
		x.r.FailPhone(pid)
	}
	x.reportFailure(t, hosts[0])
	await(t, "region death", func() bool { return x.c.RegionDead("r1") })
	if n := x.c.Recoveries("r1"); n != 1 {
		t.Fatalf("recoveries = %d, want 1", n)
	}
	if folds := x.events("recover.fold"); len(folds) != 2 {
		t.Fatalf("fold events = %+v, want C's and D's", folds)
	}
	if len(x.events("region.dead")) != 1 || len(x.events("recover.done")) != 0 {
		t.Fatal("journal should record the region's death and no completed recovery")
	}
}

// TestDepartedPhoneIsNeverFolded crashes B and C, but C's host left WiFi
// range first. A departed phone is the mobility path's to re-home, so the
// pause round must not fold it even though it cannot be paused.
func TestDepartedPhoneIsNeverFolded(t *testing.T) {
	x := newRig(t, 8, time.Hour)
	x.prologue(t)
	b, c := x.host(t, "n2"), x.host(t, "n3")
	x.r.DepartPhone(c)
	x.r.FailPhone(c)
	x.r.FailPhone(b)
	x.reportFailure(t, b)
	await(t, "recovery", func() bool { return len(x.events("recover.done")) > 0 })
	for _, e := range x.events("recover.fold") {
		if strings.Contains(e.Detail, string(c)) {
			t.Fatalf("departed %s was folded: %+v", c, e)
		}
	}
	if got := x.host(t, "n2"); got == b {
		t.Fatal("reported phone's slot was not re-hosted")
	}
}

// TestPingRoundReportsSilentSlotsTogether crashes C and D with no traffic
// flowing, so no neighbour reports either: the ping round probes every
// slot at once, both silent hosts are reported inside one debounce window,
// and one recovery re-hosts both slots.
func TestPingRoundReportsSilentSlotsTogether(t *testing.T) {
	x := newRig(t, 8, 5*time.Second)
	x.prologue(t)
	c, d := x.host(t, "n3"), x.host(t, "n4")
	x.r.FailPhone(c)
	x.r.FailPhone(d)
	await(t, "recovery", func() bool { return len(x.events("recover.done")) > 0 })
	begins := x.events("recover.begin")
	if len(begins) != 1 || !strings.Contains(begins[0].Detail, string(c)) || !strings.Contains(begins[0].Detail, string(d)) {
		t.Fatalf("recover.begin events = %+v, want one naming %s and %s", begins, c, d)
	}
	if n := x.c.Recoveries("r1"); n != 1 {
		t.Fatalf("recoveries = %d, want 1", n)
	}
	if x.host(t, "n3") == c || x.host(t, "n4") == d {
		t.Fatal("a silent slot was not re-hosted")
	}
}
