package scheduler

import (
	"time"

	"mobistreams/internal/placement"
)

// Planner is the topology-aware placement policy: it wraps the
// placement.Engine and is the controller's preferred planner. The greedy
// Scheduler stays the baseline and the fallback — Plan returns nil when the
// snapshot carries no usable channel topology (fewer than two domains),
// telling the caller to ask the Scheduler instead. Both return the same
// placement.Plan type for the same executor. Migrate steps pass through the
// shared per-slot Cooldowns ledger, so plans, greedy migrations and elastic
// split/merges all back off slots the others just disrupted.
type Planner struct {
	Engine *placement.Engine
	// Cooldown is the per-slot window applied to migrate steps
	// (default 30 s, matching the greedy scheduler).
	Cooldown time.Duration
	// Cooldowns is the shared disruption ledger; a private one is used
	// when nil.
	Cooldowns *Cooldowns
}

// NewPlanner creates a planner sharing the given cooldown ledger.
func NewPlanner(engine *placement.Engine, cooldowns *Cooldowns) *Planner {
	if cooldowns == nil {
		cooldowns = NewCooldowns()
	}
	return &Planner{Engine: engine, Cooldowns: cooldowns}
}

// Plan produces the next placement plan for one snapshot, or nil when the
// topology is unknown and the caller should fall back to the greedy
// Scheduler. Migrate steps for slots inside the cooldown window are dropped
// from the plan; the kept ones are noted immediately — the caller is
// expected to attempt every returned step.
func (p *Planner) Plan(snap placement.Snapshot) *placement.Plan {
	if len(snap.Domains) < 2 {
		return nil
	}
	window := p.Cooldown
	if window <= 0 {
		window = 30 * time.Second
	}
	plan := p.Engine.Plan(snap)
	kept := plan.Steps[:0]
	for _, st := range plan.Steps {
		if st.Kind == placement.StepMigrate {
			if !p.Cooldowns.Ready(snap.Region, st.Slot, snap.Now, window) {
				continue
			}
			p.Cooldowns.Note(snap.Region, st.Slot, snap.Now)
		}
		kept = append(kept, st)
	}
	plan.Steps = kept
	return plan
}
