package bench

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestPlacementPlannerBeatsGreedyCrossChannel is the planner acceptance
// check at test scale: round-robin channel assignment scatters every
// pipeline chain across WiFi channels at start, so the greedy arm — which
// only reacts to per-phone hazards — leaves each hop burning airtime in two
// cells for the whole run, while the planner's pack-to-empty pass
// consolidates each chain into a single channel domain and the measured
// cross-channel share drops well below greedy's. Plan execution rides the
// same exactly-once migration path as the scheduler, so the planner arm
// must not publish a single duplicate.
func TestPlacementPlannerBeatsGreedyCrossChannel(t *testing.T) {
	small := PlacementScenario{
		Phones:           48,
		Pipelines:        2,
		CheckpointPeriod: 20 * time.Second,
		Measure:          60 * time.Second,
		Drain:            10 * time.Second,
		MeanLeave:        30 * time.Second,
		Seed:             5,
	}
	if raceEnabled {
		// Race instrumentation multiplies the cost of every phone
		// goroutine; at 48 phones the pair of arms takes minutes of wall
		// time. The race build only checks the exactly-once and
		// arm-separation invariants, so a smaller population suffices.
		small.Phones = 24
		small.Measure = 40 * time.Second
	}
	// The runs pace simulated time against the wall clock, so CPU
	// contention from sibling packages can stall a plan's code-ship phase
	// past a tick boundary and smear the airtime split. Retry before
	// declaring a regression: a planner that genuinely stopped packing
	// fails every attempt, a scheduling stall does not.
	const attempts = 3
	var lastErr string
	for i := 0; i < attempts; i++ {
		rows, err := PlacementComparison(small)
		if err != nil {
			t.Fatal(err)
		}
		greedy, planner := rows[0], rows[1]
		t.Logf("attempt %d greedy:  %+v", i+1, greedy)
		t.Logf("attempt %d planner: %+v", i+1, planner)

		// Exactly-once across plan-step migrations is not load-dependent:
		// any duplicate is a protocol bug, never jitter.
		if planner.Duplicates != 0 {
			t.Fatalf("planner run published %d duplicate outputs", planner.Duplicates)
		}
		if greedy.Delivered == 0 || planner.Delivered == 0 {
			t.Fatal("a run delivered nothing")
		}
		// Greedy plans run through the same executor and are counted, but
		// they hold migrate steps only: every committed one completed at
		// least one migration. More commits than migrations means the
		// greedy arm ran the planner's reserve/release steps.
		if greedy.PlanCommits > greedy.Migrations {
			t.Fatalf("greedy arm ran the planner: commits=%d migrations=%d",
				greedy.PlanCommits, greedy.Migrations)
		}
		if raceEnabled {
			// Race instrumentation inflates every wall step ~10x, which
			// stalls plan execution past the measurement window; the
			// airtime comparison holds only on uninstrumented builds.
			return
		}
		if planner.PlanCommits >= 1 && planner.CrossChannelShare < greedy.CrossChannelShare {
			return
		}
		lastErr = fmt.Sprintf("planner commits=%d cross=%.3f vs greedy cross=%.3f (want >=1 commit and a lower share)",
			planner.PlanCommits, planner.CrossChannelShare, greedy.CrossChannelShare)
	}
	t.Fatal(lastErr)
}

func TestPlacementJSONRoundTrips(t *testing.T) {
	rows := []PlacementOutcome{
		{Mode: "greedy", Ingested: 150, Delivered: 148, Lost: 2, CrossChannelShare: 0.81},
		{Mode: "planner", Ingested: 150, Delivered: 150, Lost: 1, PlanCommits: 4, CrossChannelShare: 0.45,
			ChannelAirtimeSec: []float64{1.8, 1.7, 1.7, 1.6}},
	}
	m := PlacementMetrics(rows)
	want := Metrics{
		"placement_loss_vs_greedy":              {Value: 0.5, Unit: "ratio"},
		"placement_cross_channel_cut_vs_greedy": {Value: rows[0].CrossChannelShare - rows[1].CrossChannelShare, Unit: "ratio"},
		"placement_planner_duplicates":          {Value: 0, Unit: "count"},
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("metrics %v, want %v", m, want)
	}
	// A lossless greedy arm floors the divisor at one tuple.
	rows[0].Lost = 0
	if got := PlacementMetrics(rows)["placement_loss_vs_greedy"].Value; got != 1 {
		t.Fatalf("loss ratio against a lossless greedy arm %v, want 1", got)
	}
	roundTrip(t, "placement", rows, PlacementMetrics(rows))
}
