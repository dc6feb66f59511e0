// Package scheduler holds the adaptive placement policies: the greedy
// per-phone Scheduler, the topology-aware Planner (a wrapper around
// placement.Engine), the ElasticPolicy for keyed operators, and the
// per-slot Cooldowns ledger all three share.
//
// The greedy Scheduler turns one region snapshot (battery joules and
// observed drain, queue backlog, GPS trajectory extrapolated toward the
// WiFi range boundary) into planned live migrations — moving an operator
// slot off an at-risk phone *before* the phone dies or walks out of range,
// so the disruption the paper handles with emergency checkpoint/recovery
// (§III-D, §IV-B) becomes a cheap in-region handoff instead.
//
// The package holds no references to the region, node or controller
// runtimes. Both placement policies read the placement.Snapshot the region
// builds and return a placement.Plan the controller executes; everything in
// between is plain data, which keeps the policies unit-testable without a
// running system.
package scheduler

import (
	"sort"
	"sync/atomic"
	"time"

	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

// DefaultLowFraction is the battery fraction below which a phone is at
// risk whatever its drain estimate: comfortably above the 0.05 chronic
// threshold, so the planned migration beats the emergency chronic-battery
// report. The federation rollup counts phones below it as BatteryRisk.
const DefaultLowFraction = 0.10

const (
	// departHorizon flags a phone whose straight-line trajectory crosses
	// the WiFi boundary within this window.
	departHorizon = 45 * time.Second
	// maxPerTick bounds migrations per plan: moving the whole region at
	// once would itself be the disruption the scheduler exists to avoid.
	maxPerTick = 2
	// targetRiskCeiling excludes candidate targets whose own risk score is
	// at or above it: evacuating onto the next phone to die just doubles
	// the work.
	targetRiskCeiling = 0.5
)

// Risk is a scored hazard on a phone. Score >= 1 means the phone is
// expected to disrupt the region within the scheduler's horizons and its
// slots should be migrated off.
type Risk struct {
	Score  float64
	Reason string
}

// Config parameterises the scheduler. A phone is at risk when its
// projected battery death or WiFi boundary crossing falls within the
// horizons, or when its battery is below LowFraction.
type Config struct {
	// BatteryHorizon flags a phone whose projected time-to-death (energy /
	// observed drain) is within this window (default 90 s).
	BatteryHorizon time.Duration
	// LowFraction flags a phone below this battery fraction regardless of
	// the drain estimate (default DefaultLowFraction).
	LowFraction float64
	// Cooldown suppresses re-planning a slot that was migrated within the
	// window, so a noisy telemetry signal cannot thrash a slot between
	// phones (default 30 s).
	Cooldown time.Duration
	// Cooldowns is the shared per-slot disruption ledger. Pass the same
	// instance to the ElasticPolicy (and Planner) serving the region so
	// migrations and split/merges see each other's cooldowns; a private
	// ledger is created when nil.
	Cooldowns *Cooldowns
}

func (c *Config) applyDefaults() {
	if c.BatteryHorizon <= 0 {
		c.BatteryHorizon = 90 * time.Second
	}
	if c.LowFraction <= 0 {
		c.LowFraction = DefaultLowFraction
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Cooldowns == nil {
		c.Cooldowns = NewCooldowns()
	}
}

// Scheduler plans migrations from region snapshots. One Scheduler may serve
// many regions (the controller runs one planning loop per region against a
// shared instance); the per-slot cooldown state lives in the shared
// Cooldowns ledger.
type Scheduler struct {
	cfg     Config
	version atomic.Uint64
}

// New creates a scheduler.
func New(cfg Config) *Scheduler {
	cfg.applyDefaults()
	return &Scheduler{cfg: cfg}
}

// Risk scores one phone's hazard: the worst of a low battery, a projected
// battery death within BatteryHorizon, and a projected boundary crossing
// within departHorizon.
func (s *Scheduler) Risk(snap placement.Snapshot, p placement.Phone) Risk {
	best := Risk{}
	note := func(score float64, reason string) {
		if score > best.Score {
			best = Risk{Score: score, Reason: reason}
		}
	}
	low := s.cfg.LowFraction
	if p.BatteryFraction > 0 && p.BatteryFraction < low {
		note(1+(low-p.BatteryFraction)/low, "battery-low")
	}
	if ttd, ok := placement.TimeToDeath(p.BatteryJoules, p.DrainWatts); ok && ttd > 0 {
		note(float64(s.cfg.BatteryHorizon)/float64(ttd), "battery-drain")
	}
	if ttb, ok := placement.TimeToBoundary(snap.RadiusM, p.X, p.Y, p.VelX, p.VelY); ok {
		if ttb <= 0 {
			note(2, "departing")
		} else {
			note(float64(departHorizon)/float64(ttb), "departing")
		}
	}
	return best
}

// targetScore ranks candidate targets, higher first: battery headroom,
// lightly penalised by backlog so two equal batteries tiebreak toward the
// less loaded phone.
func targetScore(p placement.Phone) float64 {
	return p.BatteryFraction - 0.01*float64(p.Backlog)
}

// Plan inspects one region snapshot and returns a plan of migrate steps to
// run now, most urgent first: each at-risk host's slots go to the
// best-scoring idle phones, at most maxPerTick of them. Each planned slot
// is noted in the cooldown ledger immediately — the caller is expected to
// attempt the returned steps.
func (s *Scheduler) Plan(snap placement.Snapshot) *placement.Plan {
	risks := make([]Risk, len(snap.Phones))
	for i, p := range snap.Phones {
		risks[i] = s.Risk(snap, p)
	}
	slotsOn := make(map[simnet.NodeID][]string, len(snap.Slots))
	for _, a := range snap.Slots { // sorted by slot
		slotsOn[a.Phone] = append(slotsOn[a.Phone], a.Slot)
	}

	// Candidate targets: idle phones whose own risk is acceptable, best
	// score first. At-risk hosts: most urgent first. Both tiebreak by ID.
	var targets, hosts []int
	for i, p := range snap.Phones {
		if p.Idle && risks[i].Score < targetRiskCeiling {
			targets = append(targets, i)
		}
		if len(slotsOn[p.ID]) > 0 && risks[i].Score >= 1 {
			hosts = append(hosts, i)
		}
	}
	sort.Slice(targets, func(i, j int) bool {
		a, b := snap.Phones[targets[i]], snap.Phones[targets[j]]
		if sa, sb := targetScore(a), targetScore(b); sa != sb {
			return sa > sb
		}
		return a.ID < b.ID
	})
	sort.Slice(hosts, func(i, j int) bool {
		if ri, rj := risks[hosts[i]].Score, risks[hosts[j]].Score; ri != rj {
			return ri > rj
		}
		return snap.Phones[hosts[i]].ID < snap.Phones[hosts[j]].ID
	})

	plan := &placement.Plan{Region: snap.Region, Version: s.version.Add(1)}
	ti := 0
	for _, hi := range hosts {
		h := snap.Phones[hi]
		for _, slot := range slotsOn[h.ID] {
			if len(plan.Steps) >= maxPerTick || ti >= len(targets) {
				return plan
			}
			if !s.cfg.Cooldowns.Ready(snap.Region, slot, snap.Now, s.cfg.Cooldown) {
				continue
			}
			to := snap.Phones[targets[ti]]
			plan.Steps = append(plan.Steps, placement.Step{
				Kind: placement.StepMigrate, Slot: slot, From: h.ID,
				To: to.ID, Domain: to.Domain, Reason: risks[hi].Reason,
			})
			s.cfg.Cooldowns.Note(snap.Region, slot, snap.Now)
			ti++
		}
	}
	return plan
}
