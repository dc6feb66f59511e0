package region

import (
	"sort"
	"time"

	"mobistreams/internal/node"
	"mobistreams/internal/phone"
	"mobistreams/internal/placement"
	"mobistreams/internal/simnet"
)

// telePoint is one previous telemetry poll, differentiated into a rate on
// the next poll: battery drain for phones, tuple rate for keyed instances.
type telePoint struct {
	at        time.Duration
	energy    float64
	processed uint64
}

// Telemetry snapshots the region for the placement policies: the WiFi
// channel domains (membership, airtime, observed departures), every
// in-service phone's domain, battery joules and observed drain rate, queue
// backlog and GPS position/velocity relative to the region centre, the
// current slot→phone assignment, and the graph's weighted slot
// communication edges. Failed and departed phones are excluded — they are
// the reactive path's problem, not the planners'. Drain is differentiated
// across polls, so every poll moves the next one's estimate. The output
// obeys the engine's ordering contract (domains by ID, phones by ID, slots
// by name, edges by pair), so identical region state always snapshots
// identically. Spare is left for the controller, which holds the pools.
func (r *Region) Telemetry() placement.Snapshot {
	now := r.clk.Now()
	snap := placement.Snapshot{Region: r.cfg.ID, Now: now, RadiusM: r.cfg.RadiusM}
	chans := r.wifi.ChannelStats()

	r.mu.Lock()
	type entry struct {
		p  placement.Phone
		n  *node.Node
		ph *phone.Phone
	}
	entries := make([]entry, 0, len(r.phones))
	idle := make(map[simnet.NodeID]bool, len(r.idle))
	for _, id := range r.idle {
		idle[id] = true
	}
	for id, ph := range r.phones {
		if r.failed[id] || r.departed[id] {
			continue
		}
		// Every phone joins the medium with the region and leaves it
		// with Unregister, both under r.mu: the channel is always known.
		ch, _ := r.wifi.ChannelOf(id)
		entries = append(entries, entry{
			p: placement.Phone{ID: id, Domain: ch, Idle: idle[id]},
			n: r.nodes[id], ph: ph,
		})
	}
	for slot, id := range r.placement {
		snap.Slots = append(snap.Slots, placement.Assignment{Slot: slot, Phone: id})
	}
	departs := append([]int64(nil), r.domainDeparts...)
	r.mu.Unlock()

	for i, cs := range chans {
		d := placement.Domain{ID: cs.Channel, Members: cs.Members, Present: cs.Present, Airtime: cs.Airtime}
		if i < len(departs) {
			d.Departures = departs[i]
		}
		snap.Domains = append(snap.Domains, d)
	}

	r.teleMu.Lock()
	seen := make(map[simnet.NodeID]bool, len(entries))
	for _, e := range entries {
		p := e.p
		seen[p.ID] = true
		p.BatteryJoules = e.ph.EnergyJoules()
		p.BatteryFraction = e.ph.BatteryFraction()
		pos := e.ph.Position()
		p.X, p.Y = pos.X-r.cfg.Centre.X, pos.Y-r.cfg.Centre.Y
		p.VelX, p.VelY = e.ph.Velocity()
		if e.n != nil {
			p.Backlog = e.n.Backlog()
		}
		if prev, ok := r.telePrev[p.ID]; ok && now > prev.at {
			if drained := prev.energy - p.BatteryJoules; drained > 0 {
				p.DrainWatts = drained / (now - prev.at).Seconds()
			}
		}
		r.telePrev[p.ID] = telePoint{at: now, energy: p.BatteryJoules}
		snap.Phones = append(snap.Phones, p)
	}
	for id := range r.telePrev {
		if !seen[id] {
			delete(r.telePrev, id)
		}
	}
	r.teleMu.Unlock()

	sort.Slice(snap.Phones, func(i, j int) bool { return snap.Phones[i].ID < snap.Phones[j].ID })
	sort.Slice(snap.Slots, func(i, j int) bool { return snap.Slots[i].Slot < snap.Slots[j].Slot })
	for _, e := range r.cfg.Graph.SlotEdges() {
		snap.Edges = append(snap.Edges, placement.Edge{From: e.From, To: e.To, Weight: e.Weight})
	}
	return snap
}
