package node

import "mobistreams/internal/simnet"

// routeEntry caches one resolution, including negative results (an
// unplaced slot or a promoted-away standby stays unresolvable until the
// next epoch bump).
type routeEntry struct {
	id simnet.NodeID
	ok bool
}

// routeSnapshot is one immutable epoch-stamped cache generation. Lookups
// load the pointer, verify the epoch, and read the maps without locking;
// misses install a copy-on-write successor. Racing installs are benign —
// whichever snapshot lands last simply serves the next lookup.
type routeSnapshot struct {
	epoch   uint64
	primary map[string]routeEntry
	standby map[string]routeEntry
}

// resolvePrimary resolves a slot's primary through the epoch cache.
func (n *Node) resolvePrimary(slot string) (simnet.NodeID, bool) {
	epoch := n.cfg.Resolver.Epoch()
	rs := n.routes.Load()
	if rs != nil && rs.epoch == epoch {
		if e, hit := rs.primary[slot]; hit {
			return e.id, e.ok
		}
	}
	// The epoch must be read before the resolution: if a placement change
	// slips between the two, the stored snapshot carries the old epoch
	// and self-invalidates on the next lookup.
	id, ok := n.cfg.Resolver.Primary(slot)
	n.installRoute(rs, epoch, slot, routeEntry{id, ok}, true)
	return id, ok
}

// resolveStandby resolves a slot's standby through the epoch cache.
func (n *Node) resolveStandby(slot string) (simnet.NodeID, bool) {
	epoch := n.cfg.Resolver.Epoch()
	rs := n.routes.Load()
	if rs != nil && rs.epoch == epoch {
		if e, hit := rs.standby[slot]; hit {
			return e.id, e.ok
		}
	}
	id, ok := n.cfg.Resolver.Standby(slot)
	n.installRoute(rs, epoch, slot, routeEntry{id, ok}, false)
	return id, ok
}

// installRoute publishes a copy-on-write snapshot extending prev (when it
// is still the current epoch) with one fresh entry.
func (n *Node) installRoute(prev *routeSnapshot, epoch uint64, slot string, e routeEntry, primary bool) {
	next := &routeSnapshot{
		epoch:   epoch,
		primary: make(map[string]routeEntry, 4),
		standby: make(map[string]routeEntry, 4),
	}
	if prev != nil && prev.epoch == epoch {
		for k, v := range prev.primary {
			next.primary[k] = v
		}
		for k, v := range prev.standby {
			next.standby[k] = v
		}
	}
	if primary {
		next.primary[slot] = e
	} else {
		next.standby[slot] = e
	}
	n.routes.Store(next)
}
