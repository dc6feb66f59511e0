package scheduler

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mobistreams/internal/phone"
	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

func stats(phones ...PhoneStat) RegionStats {
	return RegionStats{Region: "r1", Now: 100 * time.Second, RadiusM: 100, Phones: phones}
}

func healthyIdle(id string) PhoneStat {
	return PhoneStat{ID: simnet.NodeID("r1/p" + id), Idle: true, BatteryJoules: 18e3, BatteryFraction: 0.9}
}

func TestRiskBatteryDrain(t *testing.T) {
	sc := &HeuristicScorer{BatteryHorizon: 90 * time.Second}
	rs := stats()
	// 100 J at 2 W dies in 50 s < 90 s horizon.
	r := sc.Risk(rs, PhoneStat{BatteryJoules: 100, BatteryFraction: 0.5, DrainWatts: 2})
	if r.Score < 1 || r.Reason != "battery-drain" {
		t.Fatalf("risk = %+v, want >= 1 battery-drain", r)
	}
	// Same drain with 1000 J dies in 500 s: safe.
	r = sc.Risk(rs, PhoneStat{BatteryJoules: 1000, BatteryFraction: 0.5, DrainWatts: 2})
	if r.Score >= 1 {
		t.Fatalf("healthy phone flagged: %+v", r)
	}
}

func TestRiskLowFraction(t *testing.T) {
	sc := &HeuristicScorer{}
	r := sc.Risk(stats(), PhoneStat{BatteryJoules: 500, BatteryFraction: 0.06})
	if r.Score < 1 || r.Reason != "battery-low" {
		t.Fatalf("risk = %+v, want >= 1 battery-low", r)
	}
}

// TestTimeToBoundary runs each case through the shared trajectory model
// (placement.TimeToBoundary) and through the scorer's wrapper, whose region
// centre is offset so the relative-position translation is exercised too.
func TestTimeToBoundary(t *testing.T) {
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
		rs := RegionStats{Centre: phone.Position{X: 10, Y: -5}, RadiusM: c.radius}
		p := PhoneStat{Position: phone.Position{X: 10 + c.x, Y: -5}, VelX: c.vx, VelY: c.vy}
		d, ok = TimeToBoundary(rs, p)
		if d != c.want || ok != c.ok {
			t.Fatalf("%s: scheduler ttb = %v/%v, want %v/%v", c.name, d, ok, c.want, c.ok)
		}
	}
}

func TestPlanMigratesAtRiskSlotToBestIdle(t *testing.T) {
	s := New(Config{})
	rs := stats(
		PhoneStat{ID: "r1/p1", Slots: []string{"n1"}, BatteryJoules: 50, BatteryFraction: 0.04, DrainWatts: 1},
		PhoneStat{ID: "r1/p2", Slots: []string{"n2"}, BatteryJoules: 18e3, BatteryFraction: 0.9},
		PhoneStat{ID: "r1/p3", Idle: true, BatteryJoules: 8e3, BatteryFraction: 0.4},
		PhoneStat{ID: "r1/p4", Idle: true, BatteryJoules: 18e3, BatteryFraction: 0.9},
	)
	plan := s.Plan(rs)
	if len(plan) != 1 {
		t.Fatalf("plan = %+v, want 1 migration", plan)
	}
	m := plan[0]
	if m.Slot != "n1" || m.From != "r1/p1" || m.To != "r1/p4" {
		t.Fatalf("migration = %+v, want n1 r1/p1 -> r1/p4 (best battery)", m)
	}
}

func TestPlanCooldownSuppressesRepeat(t *testing.T) {
	s := New(Config{Cooldown: 30 * time.Second})
	rs := stats(
		PhoneStat{ID: "r1/p1", Slots: []string{"n1"}, BatteryJoules: 50, BatteryFraction: 0.04},
		healthyIdle("9"),
	)
	if got := len(s.Plan(rs)); got != 1 {
		t.Fatalf("first plan = %d migrations, want 1", got)
	}
	rs.Now += 5 * time.Second
	if got := len(s.Plan(rs)); got != 0 {
		t.Fatalf("plan within cooldown = %d migrations, want 0", got)
	}
	rs.Now += 60 * time.Second
	if got := len(s.Plan(rs)); got != 1 {
		t.Fatalf("plan after cooldown = %d migrations, want 1", got)
	}
}

func TestPlanSkipsAtRiskTargets(t *testing.T) {
	s := New(Config{})
	rs := stats(
		PhoneStat{ID: "r1/p1", Slots: []string{"n1"}, BatteryJoules: 50, BatteryFraction: 0.04},
		// The only idle phone is itself about to die: no migration.
		PhoneStat{ID: "r1/p2", Idle: true, BatteryJoules: 60, BatteryFraction: 0.05},
	)
	if plan := s.Plan(rs); len(plan) != 0 {
		t.Fatalf("plan = %+v, want none (target at risk)", plan)
	}
}

func TestPlanBoundsMigrationsPerTick(t *testing.T) {
	s := New(Config{MaxPerTick: 1})
	rs := stats(
		PhoneStat{ID: "r1/p1", Slots: []string{"n1"}, BatteryJoules: 40, BatteryFraction: 0.03},
		PhoneStat{ID: "r1/p2", Slots: []string{"n2"}, BatteryJoules: 50, BatteryFraction: 0.04},
		healthyIdle("8"), healthyIdle("9"),
	)
	plan := s.Plan(rs)
	if len(plan) != 1 {
		t.Fatalf("plan = %+v, want exactly 1 (MaxPerTick)", plan)
	}
	// The most urgent host (lowest battery) goes first.
	if plan[0].From != "r1/p1" {
		t.Fatalf("plan moved %s first, want r1/p1", plan[0].From)
	}
}

func TestPlanDistinctTargetsPerMigration(t *testing.T) {
	s := New(Config{})
	rs := stats(
		PhoneStat{ID: "r1/p1", Slots: []string{"n1"}, BatteryJoules: 40, BatteryFraction: 0.03},
		PhoneStat{ID: "r1/p2", Slots: []string{"n2"}, BatteryJoules: 50, BatteryFraction: 0.04},
		healthyIdle("8"), healthyIdle("9"),
	)
	plan := s.Plan(rs)
	if len(plan) != 2 {
		t.Fatalf("plan = %+v, want 2", plan)
	}
	if plan[0].To == plan[1].To {
		t.Fatalf("both migrations target %s", plan[0].To)
	}
}

// TestPlanConcurrentRegions pins that one Scheduler instance may serve
// many regions concurrently (the controller runs one planning loop per
// region against a shared instance). Run under -race this fails loudly if
// the cooldown state or scorer defaults are mutated unguarded.
func TestPlanConcurrentRegions(t *testing.T) {
	s := New(Config{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rs := stats(
				PhoneStat{ID: "p1", Slots: []string{"n1"}, BatteryJoules: 50, BatteryFraction: 0.04},
				healthyIdle("9"),
			)
			rs.Region = fmt.Sprintf("r%d", r)
			for i := 0; i < 100; i++ {
				rs.Now += time.Second
				s.Plan(rs)
			}
		}(r)
	}
	wg.Wait()
}
