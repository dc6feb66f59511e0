package controller

import (
	"fmt"

	"mobistreams/internal/placement"
)

// runPlan executes one plan's steps in order. The plan lifecycle is
// surfaced through the region journal: plan.propose when a non-empty plan
// starts, plan.step per executed step, then plan.commit — or plan.abort the
// moment a migrate step fails, because a failed migration means the
// snapshot went stale under the plan (the target departed, or recovery
// moved the slot) and executing the remaining steps would compound the
// drift; the next tick replans from fresh telemetry. A nil or empty plan
// does nothing.
func (c *Controller) runPlan(m *managed, plan *placement.Plan) {
	if plan == nil || len(plan.Steps) == 0 {
		return
	}
	m.r.Jot("plan.propose", "", plan.Version, fmt.Sprintf("%d steps", len(plan.Steps)))
	for i, st := range plan.Steps {
		if c.stopped() || m.isDead() {
			m.r.Jot("plan.abort", st.Slot, plan.Version, "controller stopping")
			m.mu.Lock()
			m.planAborts++
			m.mu.Unlock()
			return
		}
		ok := c.execStep(m, st)
		m.r.Jot("plan.step", st.Slot, plan.Version,
			fmt.Sprintf("%d/%d ok=%v %s", i+1, len(plan.Steps), ok, st))
		if !ok && st.Kind == placement.StepMigrate {
			m.r.Jot("plan.abort", st.Slot, plan.Version, st.String())
			m.mu.Lock()
			m.planAborts++
			m.mu.Unlock()
			return
		}
	}
	m.r.Jot("plan.commit", "", plan.Version, fmt.Sprintf("%d steps", len(plan.Steps)))
	m.mu.Lock()
	m.planCommits++
	m.mu.Unlock()
}

// execStep executes one plan step. Reserve and release failures are
// tolerable (the pool is rebuilt next tick); a migrate failure is the
// caller's signal to abort the plan.
func (c *Controller) execStep(m *managed, st placement.Step) bool {
	switch st.Kind {
	case placement.StepReserve:
		if !m.r.ClaimIdle(st.To) {
			return false
		}
		m.mu.Lock()
		m.spares[st.To] = true
		warm := m.warmed[st.To]
		m.warmed[st.To] = true
		m.mu.Unlock()
		if !warm {
			// Warm the spare now: with operator code pre-shipped, a later
			// migration onto it skips the cellular code transfer entirely.
			c.shipCode(st.To)
		}
		return true
	case placement.StepRelease:
		m.mu.Lock()
		held := m.spares[st.To]
		delete(m.spares, st.To)
		m.mu.Unlock()
		if held {
			m.r.ReleaseToIdle(st.To)
		}
		return held
	case placement.StepMigrate:
		m.mu.Lock()
		preclaimed := m.spares[st.To]
		delete(m.spares, st.To)
		m.mu.Unlock()
		return c.migrateTo(m, st, preclaimed)
	default:
		return false
	}
}

// PlanStats reports how many placement plans — the planner's and the
// greedy scheduler's alike — a region committed and aborted.
func (c *Controller) PlanStats(regionID string) (committed, aborted int) {
	c.mu.Lock()
	m := c.regions[regionID]
	c.mu.Unlock()
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planCommits, m.planAborts
}
