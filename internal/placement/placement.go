// Package placement is the topology-aware placement planner: a pure,
// deterministic decision library that turns a region topology snapshot
// (AP/channel domains, per-domain airtime and membership, per-phone
// telemetry, the current slot→phone assignment and the graph's slot
// communication edges) into a versioned Plan of ordered migration, reserve
// and release steps.
//
// Three cooperating components produce a plan:
//
//   - the pack engine (pack.go) groups communicating slots by the graph's
//     slot projections and packs each group whole into one channel domain
//     before spilling, minimising the cross-channel hops that charge two
//     cells of airtime per transfer;
//   - the forecaster (forecast.go) extrapolates churn telemetry — battery
//     drain curves, GPS trajectory to the WiFi boundary, the observed
//     departure rate per domain — into per-phone hazard horizons, so
//     evacuations are planned ahead of predicted departures;
//   - the spare pool manager (spares.go) keeps N warm idle phones reserved
//     per domain, so a planned or emergency migration lands in-domain
//     without paying cross-channel transfer cost.
//
// The Snapshot and Plan types are the placement stack's one vocabulary:
// the region builds the Snapshot (Region.Telemetry), the greedy
// scheduler in internal/scheduler reads it too and emits the same Plan
// type (migrate steps only), and the controller executes either plan
// through one executor. Like internal/scheduler the package holds no
// runtime references, and the same snapshot always encodes to the same
// plan, byte for byte.
package placement

import (
	"fmt"
	"strings"
	"time"

	"mobistreams/internal/simnet"
)

// Domain is one AP/channel airtime domain's snapshot.
type Domain struct {
	ID int
	// Members / Present mirror simnet.ChannelStat: endpoints assigned to
	// the channel, and the subset in radio range.
	Members int
	Present int
	// Airtime is the cumulative airtime the channel has carried.
	Airtime time.Duration
	// Departures counts phones lost from this domain (departed or failed)
	// since the region started; the forecaster differentiates it across
	// plans into a Poisson departure-rate estimate.
	Departures int64
}

// Phone is one phone's topology and telemetry snapshot.
type Phone struct {
	ID     simnet.NodeID
	Domain int
	// Idle: available as a migration target. Spare: idle but claimed into
	// a warm spare pool by a previous plan (not in the region's idle list).
	Idle  bool
	Spare bool

	BatteryJoules   float64
	BatteryFraction float64
	DrainWatts      float64
	Backlog         int

	// Mobility relative to the region centre.
	X, Y, VelX, VelY float64
}

// Assignment is one slot's current primary placement.
type Assignment struct {
	Slot  string
	Phone simnet.NodeID
}

// Edge is one directed cross-slot communication edge (weight = number of
// operator edges aggregated), from the graph's slot projections.
type Edge struct {
	From, To string
	Weight   int
}

// Snapshot is everything the engine reads: topology plus telemetry at one
// instant. Builders must present Domains ordered by ID, Phones sorted by
// ID, Slots sorted by slot and Edges sorted by (From, To) — the engine's
// determinism contract is "same snapshot bytes in, same plan bytes out".
type Snapshot struct {
	Region  string
	Now     time.Duration
	RadiusM float64 // WiFi boundary; 0 disables trajectory forecasting

	Domains []Domain
	Phones  []Phone
	Slots   []Assignment
	Edges   []Edge
}

func (s *Snapshot) phone(id simnet.NodeID) *Phone {
	for i := range s.Phones {
		if s.Phones[i].ID == id {
			return &s.Phones[i]
		}
	}
	return nil
}

// StepKind discriminates plan steps.
type StepKind int

const (
	// StepMigrate moves Slot from phone From to phone To (in domain Domain).
	StepMigrate StepKind = iota
	// StepReserve claims idle phone To into domain Domain's warm spare pool.
	StepReserve
	// StepRelease returns spare phone To to the shared idle pool.
	StepRelease
)

func (k StepKind) String() string {
	switch k {
	case StepMigrate:
		return "migrate"
	case StepReserve:
		return "reserve"
	case StepRelease:
		return "release"
	default:
		return fmt.Sprintf("step(%d)", int(k))
	}
}

// Step is one ordered plan action.
type Step struct {
	Kind   StepKind
	Slot   string        // migrate only
	From   simnet.NodeID // migrate only
	To     simnet.NodeID
	Domain int // target domain
	Reason string
}

func (st Step) String() string {
	switch st.Kind {
	case StepMigrate:
		return fmt.Sprintf("migrate %s %s->%s dom%d %s", st.Slot, st.From, st.To, st.Domain, st.Reason)
	default:
		return fmt.Sprintf("%s %s dom%d %s", st.Kind, st.To, st.Domain, st.Reason)
	}
}

// Plan is one versioned placement plan. Steps are ordered: the controller
// executes them sequentially, aborts the remainder on a failed migration,
// and replans from fresh telemetry on the next tick.
type Plan struct {
	Region  string
	Version uint64
	Steps   []Step
}

// Encode renders the plan deterministically, one step per line. The golden
// determinism test pins this output; the journal records it per step.
func (p *Plan) Encode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s v%d steps=%d\n", p.Region, p.Version, len(p.Steps))
	for i, st := range p.Steps {
		fmt.Fprintf(&b, "%2d %s\n", i, st)
	}
	return b.String()
}
