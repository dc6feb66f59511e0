package region_test

import (
	"strings"
	"testing"
	"time"

	"mobistreams/internal/broadcast"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/ft"
	"mobistreams/internal/obs"
	"mobistreams/internal/placement"
	"mobistreams/internal/region"
	"mobistreams/internal/scheduler"
	"mobistreams/internal/simnet"
)

// plannerHarness wires a two-channel region into a controller running the
// topology-aware placement planner with the greedy scheduler as fallback, both
// sharing one per-slot cooldown ledger. Cellular is deliberately slow so a
// plan's code-ship phase spans enough wall time for the test to interfere
// with an in-flight step.
func plannerHarness(t *testing.T, phones int) *harness {
	t.Helper()
	clk := clock.NewScaled(300)
	// Slow cellular: one 256 KB code ship takes ~40 simulated seconds, a
	// wide-open window for the test to depart a migration target with the
	// ship still in flight.
	cell := simnet.NewCellular(clk, simnet.CellularConfig{
		UpBitsPerSecond:   0.05e6,
		DownBitsPerSecond: 0.05e6,
	})
	ledger := scheduler.NewCooldowns()
	ctrl := controller.New(controller.Config{
		Clock:            clk,
		Cell:             cell,
		CheckpointPeriod: time.Hour,
		PingInterval:     time.Hour,
		PingTimeout:      10 * time.Second,
		Sched: scheduler.New(scheduler.Config{
			LowFraction: 0.10,
			Cooldown:    5 * time.Second,
			Cooldowns:   ledger,
		}),
		Planner:      scheduler.NewPlanner(placement.New(placement.Config{}), ledger),
		ScheduleTick: 2 * time.Second,
	})
	r, err := region.New(region.Config{
		ID:                "r1",
		Graph:             diamondGraph(t),
		Registry:          diamondRegistry(),
		Scheme:            ft.MSScheme,
		Phones:            phones,
		Clock:             clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: 100e6, Channels: 2},
		Cell:              cell,
		ControllerID:      ctrl.ID(),
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AddRegion(r)
	r.Start()
	ctrl.Start()
	t.Cleanup(func() {
		r.Stop()
		ctrl.Stop()
	})
	return &harness{clk: clk, cell: cell, ctrl: ctrl, r: r}
}

// waitJournal polls the region journal until an event of the wanted kind
// appears, returning it.
func waitJournal(t *testing.T, h *harness, kind string, wall time.Duration) (obsEvent, bool) {
	t.Helper()
	deadline := time.Now().Add(wall)
	for time.Now().Before(deadline) {
		for _, e := range h.r.Obs().Journal.Events() {
			if e.Kind == kind {
				return obsEvent{Kind: e.Kind, Slot: e.Slot, Detail: e.Detail}, true
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return obsEvent{}, false
}

type obsEvent struct {
	Kind   string
	Slot   string
	Detail string
}

// TestPlannerAbortsOnDepartureAndReplans drives the full plan lifecycle
// against churn: the planner proposes a pack-to-empty plan consolidating the
// diamond onto channel 0 (round-robin channels put n1/n3/n5 on channel 0 and
// n2/n4 on channel 1, with idle p7/p9/p11 on channel 0), the test departs
// the plan's second migration target while the first step's code ship is
// still in flight, and the controller must abort the plan the moment the
// stale step fails — journalled, no reactive recovery — then replan the
// leftover slot onto the surviving idle phone with no output lost or
// duplicated.
func TestPlannerAbortsOnDepartureAndReplans(t *testing.T) {
	h := plannerHarness(t, 11)

	// The first plan packs the group into channel 0: n2 onto p11 and n4
	// onto p7 (candidates sort by ID, "r1/p11" < "r1/p7" < "r1/p9").
	// Depart p7 the moment the plan is proposed: step 1's ~40-second code
	// ship leaves the plan mid-execution, so by the time step 2 tries to
	// claim p7 the phone is gone and the claim fails against the stale
	// snapshot. No tuples are ingested yet — the first tick fires two
	// simulated seconds in, and the departure must land inside step 1.
	if _, ok := waitJournal(t, h, "plan.propose", 20*time.Second); !ok {
		t.Fatal("planner never proposed a plan")
	}
	h.r.DepartPhone("r1/p7")

	abort, ok := waitJournal(t, h, "plan.abort", 20*time.Second)
	if !ok {
		for _, e := range h.r.Obs().Journal.Events() {
			t.Logf("journal: %s slot=%s detail=%s", e.Kind, e.Slot, e.Detail)
		}
		t.Fatal("departing the migration target did not abort the plan")
	}
	if abort.Slot != "n4" || !strings.Contains(abort.Detail, "r1/p7") {
		t.Fatalf("abort = %+v, want slot n4 targeting r1/p7", abort)
	}

	// The next tick replans from fresh topology: p7 is gone, so n4 lands
	// on p9, channel 0's surviving idle phone, completing the repack.
	if _, ok := waitJournal(t, h, "plan.commit", 20*time.Second); !ok {
		t.Fatal("planner never committed a replacement plan")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pid, _ := h.r.Placement("n4"); pid == "r1/p9" {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if pid, _ := h.r.Placement("n4"); pid != "r1/p9" {
		t.Fatalf("n4 on %s, want r1/p9 after replan", pid)
	}
	if pid, _ := h.r.Placement("n2"); pid != "r1/p11" {
		t.Fatalf("n2 on %s, want r1/p11 from the aborted plan's landed step", pid)
	}
	committed, aborted := h.ctrl.PlanStats("r1")
	if committed < 1 || aborted < 1 {
		t.Fatalf("plan stats committed=%d aborted=%d, want >=1 each", committed, aborted)
	}
	if h.ctrl.Recoveries("r1") != 0 {
		t.Fatal("reactive recovery fired; the plan abort should be clean")
	}

	// No tuple is lost or duplicated on the repacked placement: everything
	// ingested comes out exactly once through the migrated pipeline.
	h.ingest(20)
	if got := h.waitCount(t, 20, 30*time.Second); got < 20 {
		t.Fatalf("outputs after replan = %d, want >= 20", got)
	}
	if d := h.r.DuplicateOutputs(); d != 0 {
		t.Fatalf("duplicates = %d, want 0", d)
	}
}

// TestPlannerFallsBackToGreedyWithoutTopology pins the fallback contract: on
// a single-channel region the planner reports no usable topology and the
// greedy scheduler keeps evacuating low-battery hosts exactly as before.
func TestPlannerFallsBackToGreedyWithoutTopology(t *testing.T) {
	clk := clock.NewScaled(2000)
	cell := simnet.NewCellular(clk, simnet.CellularConfig{
		UpBitsPerSecond:   8e6,
		DownBitsPerSecond: 8e6,
	})
	ledger := scheduler.NewCooldowns()
	ctrl := controller.New(controller.Config{
		Clock:            clk,
		Cell:             cell,
		CheckpointPeriod: time.Hour,
		PingInterval:     time.Hour,
		PingTimeout:      10 * time.Second,
		Sched: scheduler.New(scheduler.Config{
			LowFraction: 0.15,
			Cooldown:    5 * time.Second,
			Cooldowns:   ledger,
		}),
		Planner:      scheduler.NewPlanner(placement.New(placement.Config{}), ledger),
		ScheduleTick: 2 * time.Second,
	})
	r, err := region.New(region.Config{
		ID:                "r1",
		Graph:             diamondGraph(t),
		Registry:          diamondRegistry(),
		Scheme:            ft.MSScheme,
		Phones:            7,
		Clock:             clk,
		WiFi:              simnet.WiFiConfig{BitsPerSecond: 100e6},
		Cell:              cell,
		ControllerID:      ctrl.ID(),
		Broadcast:         broadcast.Config{BlockSize: 1024},
		PreserveBroadcast: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.AddRegion(r)
	r.Start()
	ctrl.Start()
	t.Cleanup(func() {
		r.Stop()
		ctrl.Stop()
	})
	h := &harness{clk: clk, cell: cell, ctrl: ctrl, r: r}
	h.ingest(10)
	if got := h.waitCount(t, 10, 10*time.Second); got != 10 {
		t.Fatalf("outputs = %d, want 10", got)
	}

	victim, _ := r.Placement("n3")
	r.Phone(victim).Revive(0.08)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if pid, _ := r.Placement("n3"); pid != victim {
			break
		}
		h.ingest(1)
		time.Sleep(5 * time.Millisecond)
	}
	if pid, _ := r.Placement("n3"); pid == victim {
		t.Fatalf("greedy fallback never evacuated n3 off %s", victim)
	}
	// Greedy plans are journaled and counted like the planner's, so the
	// evidence that the planner stood aside is in the steps: every one is a
	// greedy evacuation, never an engine pack, evacuation or spare step.
	h2 := &harness{r: r}
	if _, ok := waitJournal(t, h2, "plan.commit", 20*time.Second); !ok {
		t.Fatal("greedy evacuation was not journaled as a plan")
	}
	for _, e := range planEvents(r) {
		if e.Kind == "plan.step" && !greedyStep(e.Detail) {
			t.Fatalf("planner ran on single-channel topology: %s %s", e.Kind, e.Detail)
		}
	}
	if _, aborted := ctrl.PlanStats("r1"); aborted != 0 {
		t.Fatalf("plan aborted %d times on a clean evacuation", aborted)
	}
}

// greedyStep reports whether a plan.step detail is a greedy scheduler
// migration: its reason is a risk label, not an engine pack:, evac: or
// spare reason.
func greedyStep(detail string) bool {
	for _, reason := range []string{" battery-low", " battery-drain", " departing"} {
		if strings.Contains(detail, " migrate ") && strings.HasSuffix(detail, reason) {
			return true
		}
	}
	return false
}

// planEvents returns the region journal's plan lifecycle events in order.
func planEvents(r *region.Region) []obs.Event {
	var out []obs.Event
	for _, e := range r.Obs().Journal.Events() {
		if strings.HasPrefix(e.Kind, "plan.") {
			out = append(out, e)
		}
	}
	return out
}
