package scheduler

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

// snapshot builds region r1's snapshot at t=100 s; hosts maps each slot to
// the phone running it.
func snapshot(hosts map[string]simnet.NodeID, phones ...placement.Phone) placement.Snapshot {
	snap := placement.Snapshot{Region: "r1", Now: 100 * time.Second, RadiusM: 100, Phones: phones}
	for slot, id := range hosts {
		snap.Slots = append(snap.Slots, placement.Assignment{Slot: slot, Phone: id})
	}
	sort.Slice(snap.Slots, func(i, j int) bool { return snap.Slots[i].Slot < snap.Slots[j].Slot })
	return snap
}

func healthyIdle(id string) placement.Phone {
	return placement.Phone{ID: simnet.NodeID("r1/p" + id), Idle: true, BatteryJoules: 18e3, BatteryFraction: 0.9}
}

func TestRiskBatteryDrain(t *testing.T) {
	sc := New(Config{BatteryHorizon: 90 * time.Second})
	snap := snapshot(nil)
	// 100 J at 2 W dies in 50 s < 90 s horizon.
	r := sc.Risk(snap, placement.Phone{BatteryJoules: 100, BatteryFraction: 0.5, DrainWatts: 2})
	if r.Score < 1 || r.Reason != "battery-drain" {
		t.Fatalf("risk = %+v, want >= 1 battery-drain", r)
	}
	// Same drain with 1000 J dies in 500 s: safe.
	r = sc.Risk(snap, placement.Phone{BatteryJoules: 1000, BatteryFraction: 0.5, DrainWatts: 2})
	if r.Score >= 1 {
		t.Fatalf("healthy phone flagged: %+v", r)
	}
}

func TestRiskLowFraction(t *testing.T) {
	sc := New(Config{})
	r := sc.Risk(snapshot(nil), placement.Phone{BatteryJoules: 500, BatteryFraction: 0.06})
	if r.Score < 1 || r.Reason != "battery-low" {
		t.Fatalf("risk = %+v, want >= 1 battery-low", r)
	}
}

// TestTimeToBoundary runs each case through the shared trajectory model
// (placement.TimeToBoundary) and through the scheduler's departure risk,
// which reads the same model off the snapshot's centre-relative position.
func TestTimeToBoundary(t *testing.T) {
	sc := New(Config{})
	for _, c := range []struct {
		name              string
		radius, x, vx, vy float64
		want              time.Duration
		ok                bool
	}{
		// 60 m out, moving radially outward at 2 m/s: boundary in 20 s.
		{"outbound", 100, 60, 2, 0, 20 * time.Second, true},
		{"inbound", 100, 60, -2, 0, 0, false},
		{"tangential", 100, 60, 0, 5, 0, false},
		{"stationary", 100, 60, 0, 0, 0, false},
		{"already out", 100, 120, 0, 0, 0, true},
		{"no boundary", 0, 60, 2, 0, 0, false},
	} {
		d, ok := placement.TimeToBoundary(c.radius, c.x, 0, c.vx, c.vy)
		if d != c.want || ok != c.ok {
			t.Fatalf("%s: placement ttb = %v/%v, want %v/%v", c.name, d, ok, c.want, c.ok)
		}
		snap := placement.Snapshot{RadiusM: c.radius}
		r := sc.Risk(snap, placement.Phone{X: c.x, VelX: c.vx, VelY: c.vy})
		wantScore := 0.0
		switch {
		case c.ok && c.want == 0:
			wantScore = 2
		case c.ok:
			wantScore = float64(departHorizon) / float64(c.want)
		}
		if r.Score != wantScore {
			t.Fatalf("%s: departure risk = %+v, want score %v", c.name, r, wantScore)
		}
	}
}

func TestPlanMigratesAtRiskSlotToBestIdle(t *testing.T) {
	s := New(Config{})
	snap := snapshot(map[string]simnet.NodeID{"n1": "r1/p1", "n2": "r1/p2"},
		placement.Phone{ID: "r1/p1", BatteryJoules: 50, BatteryFraction: 0.04, DrainWatts: 1},
		placement.Phone{ID: "r1/p2", BatteryJoules: 18e3, BatteryFraction: 0.9},
		placement.Phone{ID: "r1/p3", Idle: true, BatteryJoules: 8e3, BatteryFraction: 0.4},
		placement.Phone{ID: "r1/p4", Idle: true, BatteryJoules: 18e3, BatteryFraction: 0.9, Domain: 1},
	)
	plan := s.Plan(snap)
	if len(plan.Steps) != 1 {
		t.Fatalf("plan = %+v, want 1 migration", plan)
	}
	m := plan.Steps[0]
	if m.Kind != placement.StepMigrate || m.Slot != "n1" || m.From != "r1/p1" || m.To != "r1/p4" || m.Domain != 1 {
		t.Fatalf("step = %+v, want migrate n1 r1/p1 -> r1/p4 dom1 (best battery)", m)
	}
	if plan.Region != "r1" || plan.Version != 1 {
		t.Fatalf("plan %s v%d, want r1 v1", plan.Region, plan.Version)
	}
	if next := s.Plan(snap); next.Version != 2 {
		t.Fatalf("second plan v%d, want v2", next.Version)
	}
}

func TestPlanCooldownSuppressesRepeat(t *testing.T) {
	s := New(Config{Cooldown: 30 * time.Second})
	snap := snapshot(map[string]simnet.NodeID{"n1": "r1/p1"},
		placement.Phone{ID: "r1/p1", BatteryJoules: 50, BatteryFraction: 0.04},
		healthyIdle("9"),
	)
	if got := len(s.Plan(snap).Steps); got != 1 {
		t.Fatalf("first plan = %d migrations, want 1", got)
	}
	snap.Now += 5 * time.Second
	if got := len(s.Plan(snap).Steps); got != 0 {
		t.Fatalf("plan within cooldown = %d migrations, want 0", got)
	}
	snap.Now += 60 * time.Second
	if got := len(s.Plan(snap).Steps); got != 1 {
		t.Fatalf("plan after cooldown = %d migrations, want 1", got)
	}
}

func TestPlanSkipsAtRiskTargets(t *testing.T) {
	s := New(Config{})
	snap := snapshot(map[string]simnet.NodeID{"n1": "r1/p1"},
		placement.Phone{ID: "r1/p1", BatteryJoules: 50, BatteryFraction: 0.04},
		// The only idle phone is itself about to die: no migration.
		placement.Phone{ID: "r1/p2", Idle: true, BatteryJoules: 60, BatteryFraction: 0.05},
	)
	if plan := s.Plan(snap); len(plan.Steps) != 0 {
		t.Fatalf("plan = %+v, want none (target at risk)", plan)
	}
}

func TestPlanBoundsMigrationsPerTick(t *testing.T) {
	s := New(Config{})
	snap := snapshot(map[string]simnet.NodeID{"n1": "r1/p1", "n2": "r1/p2", "n3": "r1/p3"},
		placement.Phone{ID: "r1/p1", BatteryJoules: 40, BatteryFraction: 0.03},
		placement.Phone{ID: "r1/p2", BatteryJoules: 50, BatteryFraction: 0.04},
		placement.Phone{ID: "r1/p3", BatteryJoules: 60, BatteryFraction: 0.05},
		healthyIdle("7"), healthyIdle("8"), healthyIdle("9"),
	)
	plan := s.Plan(snap)
	if len(plan.Steps) != 2 {
		t.Fatalf("plan = %+v, want exactly 2 (maxPerTick)", plan)
	}
	// The most urgent hosts (lowest battery) go first.
	if plan.Steps[0].From != "r1/p1" || plan.Steps[1].From != "r1/p2" {
		t.Fatalf("plan moved %s, %s first, want r1/p1, r1/p2", plan.Steps[0].From, plan.Steps[1].From)
	}
}

func TestPlanDistinctTargetsPerMigration(t *testing.T) {
	s := New(Config{})
	snap := snapshot(map[string]simnet.NodeID{"n1": "r1/p1", "n2": "r1/p2"},
		placement.Phone{ID: "r1/p1", BatteryJoules: 40, BatteryFraction: 0.03},
		placement.Phone{ID: "r1/p2", BatteryJoules: 50, BatteryFraction: 0.04},
		healthyIdle("8"), healthyIdle("9"),
	)
	plan := s.Plan(snap)
	if len(plan.Steps) != 2 {
		t.Fatalf("plan = %+v, want 2", plan)
	}
	if plan.Steps[0].To == plan.Steps[1].To {
		t.Fatalf("both migrations target %s", plan.Steps[0].To)
	}
}

// TestPlanConcurrentRegions pins that one Scheduler instance may serve
// many regions concurrently (the controller runs one planning loop per
// region against a shared instance). Run under -race this fails loudly if
// the cooldown state or the version counter is mutated unguarded.
func TestPlanConcurrentRegions(t *testing.T) {
	s := New(Config{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			snap := snapshot(map[string]simnet.NodeID{"n1": "p1"},
				placement.Phone{ID: "p1", BatteryJoules: 50, BatteryFraction: 0.04},
				healthyIdle("9"),
			)
			snap.Region = fmt.Sprintf("r%d", r)
			for i := 0; i < 100; i++ {
				snap.Now += time.Second
				s.Plan(snap)
			}
		}(r)
	}
	wg.Wait()
}
