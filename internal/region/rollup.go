package region

import (
	"mobistreams/internal/placement"
	"mobistreams/internal/scheduler"
	"mobistreams/internal/wire"
)

// RollupFromSnapshot folds one telemetry snapshot into the federation's
// compact rollup frame: a few dozen bytes standing in for per-phone
// telemetry that never leaves the region — the compression that keeps
// backhaul control traffic flat as the federation grows. It is a pure
// function so the controller can reuse the telemetry poll its scheduling
// tick already paid for. BatteryRisk counts phones below the greedy
// scheduler's default low-battery line, so a region's published risk
// matches what its own placement loop would act on.
func RollupFromSnapshot(snap placement.Snapshot, epoch uint64) wire.Rollup {
	ru := wire.Rollup{Region: snap.Region, Epoch: epoch, Phones: len(snap.Phones)}
	for i := range snap.Phones {
		p := &snap.Phones[i]
		if p.Idle {
			ru.Idle++
		}
		ru.Backlog += p.Backlog
		if p.BatteryFraction < scheduler.DefaultLowFraction {
			ru.BatteryRisk++
		}
	}
	return ru
}

// Outputs reports how many deduplicated sink results the region has
// published.
func (r *Region) Outputs() uint64 {
	r.outMu.Lock()
	defer r.outMu.Unlock()
	var n uint64
	for _, seen := range r.seenOutput {
		n += uint64(len(seen))
	}
	return n
}
