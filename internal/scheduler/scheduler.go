// Package scheduler implements the adaptive placement scheduler: a pure
// decision library that turns per-region telemetry (battery joules and
// observed drain, radio bandwidth, per-slot queue backlog and tuple rate,
// GPS trajectory extrapolated toward the WiFi range boundary) into planned
// live migrations — moving an operator slot off an at-risk phone *before*
// the phone dies or walks out of range, so the disruption the paper handles
// with emergency checkpoint/recovery (§III-D, §IV-B) becomes a cheap
// in-region handoff instead.
//
// The package deliberately holds no references to the region, node or
// controller runtimes: the region produces RegionStats, the controller
// executes the returned Migrations, and everything in between is plain data
// — which keeps the policy unit-testable without a running system and lets
// deployments swap the Scorer.
package scheduler

import (
	"sort"
	"time"

	"mobistreams/internal/phone"
	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

// PhoneStat is one phone's telemetry snapshot.
type PhoneStat struct {
	ID    simnet.NodeID
	Slots []string // slots whose primary is this phone; empty for idle
	Idle  bool     // available as a migration target

	// Battery telemetry.
	BatteryJoules   float64
	BatteryFraction float64
	// DrainWatts is the observed discharge rate since the previous poll
	// (0 when unknown, e.g. on the first poll).
	DrainWatts float64

	// Load telemetry (from the node runtime and the PR-1 batch metrics).
	Backlog   int     // queued-but-unprocessed stream items
	TupleRate float64 // tuples processed per simulated second since last poll

	// Radio telemetry.
	RadioBps float64 // estimated share of the region medium

	// Mobility telemetry.
	Position phone.Position
	VelX     float64 // metres per simulated second
	VelY     float64
}

// RegionStats is one region's telemetry snapshot at simulated time Now.
type RegionStats struct {
	Region  string
	Now     time.Duration
	Centre  phone.Position
	RadiusM float64 // WiFi range boundary; 0 disables departure prediction
	Phones  []PhoneStat
}

// Risk is a scored hazard on a phone. Score >= 1 means the phone is
// expected to disrupt the region within the scorer's horizon and its slots
// should be migrated off.
type Risk struct {
	Score  float64
	Reason string
}

// Scorer is the pluggable placement policy: Risk decides which phones to
// evacuate, TargetScore ranks candidate replacements (higher is better).
type Scorer interface {
	Risk(rs RegionStats, p PhoneStat) Risk
	TargetScore(rs RegionStats, p PhoneStat) float64
}

// HeuristicScorer is the default policy: a phone is at risk when its
// projected battery death or WiFi boundary crossing falls within the
// configured horizons, or when its battery is below LowFraction; targets
// are ranked by battery headroom minus load.
type HeuristicScorer struct {
	// BatteryHorizon flags a phone whose projected time-to-death (energy /
	// observed drain) is within this window (default 90 s).
	BatteryHorizon time.Duration
	// LowFraction flags a phone below this battery fraction regardless of
	// the drain estimate (default 0.10 — comfortably above the 0.05
	// chronic threshold, so the planned migration beats the emergency
	// chronic-battery report).
	LowFraction float64
	// DepartHorizon flags a phone whose straight-line trajectory crosses
	// the WiFi boundary within this window (default 45 s).
	DepartHorizon time.Duration
}

// horizons resolves the configured values against defaults without
// mutating the (shared, concurrently used) scorer.
func (h *HeuristicScorer) horizons() (battery time.Duration, low float64, depart time.Duration) {
	battery, low, depart = h.BatteryHorizon, h.LowFraction, h.DepartHorizon
	if battery <= 0 {
		battery = 90 * time.Second
	}
	if low <= 0 {
		low = 0.10
	}
	if depart <= 0 {
		depart = 45 * time.Second
	}
	return battery, low, depart
}

// TimeToBoundary extrapolates the phone's straight-line trajectory to the
// region's WiFi range boundary (placement.TimeToBoundary, the one
// trajectory model the scorer and the planner share).
func TimeToBoundary(rs RegionStats, p PhoneStat) (time.Duration, bool) {
	return placement.TimeToBoundary(rs.RadiusM,
		p.Position.X-rs.Centre.X, p.Position.Y-rs.Centre.Y, p.VelX, p.VelY)
}

// Risk implements Scorer.
func (h *HeuristicScorer) Risk(rs RegionStats, p PhoneStat) Risk {
	batteryHorizon, lowFraction, departHorizon := h.horizons()
	best := Risk{}
	note := func(score float64, reason string) {
		if score > best.Score {
			best = Risk{Score: score, Reason: reason}
		}
	}
	if p.BatteryFraction > 0 && p.BatteryFraction < lowFraction {
		note(1+(lowFraction-p.BatteryFraction)/lowFraction, "battery-low")
	}
	if ttd, ok := placement.TimeToDeath(p.BatteryJoules, p.DrainWatts); ok && ttd > 0 {
		note(float64(batteryHorizon)/float64(ttd), "battery-drain")
	}
	if ttb, ok := TimeToBoundary(rs, p); ok {
		if ttb <= 0 {
			note(2, "departing")
		} else {
			note(float64(departHorizon)/float64(ttb), "departing")
		}
	}
	return best
}

// TargetScore implements Scorer: battery headroom first, lightly penalised
// by backlog and rewarded by radio headroom so two equal batteries tiebreak
// toward the less loaded phone.
func (h *HeuristicScorer) TargetScore(rs RegionStats, p PhoneStat) float64 {
	score := p.BatteryFraction
	score -= 0.01 * float64(p.Backlog)
	if p.RadioBps > 0 {
		score += 1e-9 * p.RadioBps
	}
	return score
}

// Migration is one planned slot move.
type Migration struct {
	Slot   string
	From   simnet.NodeID
	To     simnet.NodeID
	Reason string
}

// Config parameterises the scheduler.
type Config struct {
	// Scorer is the placement policy (default HeuristicScorer zero value).
	Scorer Scorer
	// Cooldown suppresses re-planning a slot that was migrated within the
	// window, so a noisy telemetry signal cannot thrash a slot between
	// phones (default 30 s).
	Cooldown time.Duration
	// MaxPerTick bounds planned migrations per Plan call; moving the whole
	// region at once would itself be the disruption the scheduler exists
	// to avoid (default 2).
	MaxPerTick int
	// Cooldowns is the shared per-slot disruption ledger. Pass the same
	// instance to the ElasticPolicy (and Planner) serving the region so
	// migrations and split/merges see each other's cooldowns; a private
	// ledger is created when nil.
	Cooldowns *Cooldowns
}

func (c *Config) applyDefaults() {
	if c.Scorer == nil {
		c.Scorer = &HeuristicScorer{}
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.MaxPerTick <= 0 {
		c.MaxPerTick = 2
	}
	if c.Cooldowns == nil {
		c.Cooldowns = NewCooldowns()
	}
}

// targetRiskCeiling excludes candidate targets whose own risk score is at
// or above it: evacuating onto the next phone to die just doubles the work.
const targetRiskCeiling = 0.5

// Scheduler plans migrations from telemetry. One Scheduler may serve many
// regions (the controller runs one planning loop per region against a
// shared instance); the per-slot cooldown state lives in the shared
// Cooldowns ledger.
type Scheduler struct {
	cfg Config
}

// New creates a scheduler.
func New(cfg Config) *Scheduler {
	cfg.applyDefaults()
	return &Scheduler{cfg: cfg}
}

// Cooldowns exposes the scheduler's per-slot disruption ledger so other
// policies (ElasticPolicy, Planner) can share it.
func (s *Scheduler) Cooldowns() *Cooldowns { return s.cfg.Cooldowns }

// Plan inspects one region's telemetry and returns the migrations to run
// now, most urgent first. Each returned slot is recorded against the
// cooldown immediately — the caller is expected to attempt every returned
// migration.
func (s *Scheduler) Plan(rs RegionStats) []Migration {
	sc := s.cfg.Scorer
	risks := make(map[simnet.NodeID]Risk, len(rs.Phones))
	for _, p := range rs.Phones {
		risks[p.ID] = sc.Risk(rs, p)
	}

	// Candidate targets: idle phones whose own risk is acceptable, best
	// score first.
	var targets []PhoneStat
	for _, p := range rs.Phones {
		if p.Idle && risks[p.ID].Score < targetRiskCeiling {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool {
		si, sj := sc.TargetScore(rs, targets[i]), sc.TargetScore(rs, targets[j])
		if si != sj {
			return si > sj
		}
		return targets[i].ID < targets[j].ID // deterministic tiebreak
	})

	// At-risk hosts, most urgent first.
	var hosts []PhoneStat
	for _, p := range rs.Phones {
		if len(p.Slots) > 0 && risks[p.ID].Score >= 1 {
			hosts = append(hosts, p)
		}
	}
	sort.Slice(hosts, func(i, j int) bool {
		ri, rj := risks[hosts[i].ID].Score, risks[hosts[j].ID].Score
		if ri != rj {
			return ri > rj
		}
		return hosts[i].ID < hosts[j].ID
	})

	var plan []Migration
	ti := 0
	for _, h := range hosts {
		for _, slot := range h.Slots {
			if len(plan) >= s.cfg.MaxPerTick || ti >= len(targets) {
				return plan
			}
			if !s.cfg.Cooldowns.Ready(rs.Region, slot, rs.Now, s.cfg.Cooldown) {
				continue
			}
			plan = append(plan, Migration{
				Slot:   slot,
				From:   h.ID,
				To:     targets[ti].ID,
				Reason: risks[h.ID].Reason,
			})
			s.cfg.Cooldowns.Note(rs.Region, slot, rs.Now)
			ti++
		}
	}
	return plan
}
