package placement

import (
	"fmt"
	"math"
	"time"
)

// hazard is one phone's predicted departure: In is how long until the
// phone is expected to leave service, Reason a stable label for plan steps.
type hazard struct {
	In     time.Duration
	Reason string
}

// forecastPhone extrapolates one phone's telemetry into its nearest
// predicted departure: battery death from the observed drain curve, or the
// straight-line GPS trajectory crossing the WiFi boundary. It returns
// (hazard, true) only when a departure is predicted at all.
func forecastPhone(s *Snapshot, p *Phone) (hazard, bool) {
	best, ok := hazard{}, false
	note := func(in time.Duration, reason string) {
		if !ok || in < best.In {
			best, ok = hazard{In: in, Reason: reason}, true
		}
	}
	if in, dying := TimeToDeath(p.BatteryJoules, p.DrainWatts); dying {
		note(in, "battery")
	}
	if in, crossing := TimeToBoundary(s.RadiusM, p.X, p.Y, p.VelX, p.VelY); crossing {
		note(in, "trajectory")
	}
	return best, ok
}

// TimeToDeath extrapolates the observed battery drain to empty: joules
// left over the discharge rate in watts. It returns (0, false) when the
// phone is not draining or reports no charge.
func TimeToDeath(joules, watts float64) (time.Duration, bool) {
	if watts <= 0 || joules <= 0 {
		return 0, false
	}
	return time.Duration(joules / watts * float64(time.Second)), true
}

// TimeToBoundary extrapolates a straight-line trajectory to a WiFi range
// boundary of radiusM metres. The position (x, y) is relative to the region
// centre, in metres; the velocity (vx, vy) is in metres per simulated
// second. It returns (d, true) when the phone is inside the boundary and
// moving so that it crosses it d from now, (0, true) when it is already
// out, and (0, false) when the phone is stationary, inbound or tangential,
// or radiusM <= 0 (no boundary configured).
func TimeToBoundary(radiusM, x, y, vx, vy float64) (time.Duration, bool) {
	if radiusM <= 0 {
		return 0, false
	}
	dist := math.Sqrt(x*x + y*y)
	if dist >= radiusM {
		return 0, true // already out: cross immediately
	}
	speed := math.Sqrt(vx*vx + vy*vy)
	if speed <= 0 {
		return 0, false
	}
	// Radial component of the velocity: outward speed toward the boundary.
	var vr float64
	if dist > 0 {
		vr = (x*vx + y*vy) / dist
	} else {
		vr = speed
	}
	if vr <= 0 {
		return 0, false
	}
	return time.Duration((radiusM - dist) / vr * float64(time.Second)), true
}

// forecast is the per-plan hazard view: which phones are predicted to leave
// within the horizon, and each domain's departure-rate capacity outlook.
type forecast struct {
	// doomed maps phone index (into Snapshot.Phones) to its hazard for
	// phones predicted to leave within the engine's horizon.
	doomed map[int]hazard
	// rate is each domain's estimated departure rate in phones per minute,
	// an EWMA the engine differentiates across plans.
	rate []float64
}

func (f *forecast) doomedPhone(s *Snapshot, id string) (hazard, bool) {
	for i := range s.Phones {
		if string(s.Phones[i].ID) == id {
			h, ok := f.doomed[i]
			return h, ok
		}
	}
	return hazard{}, false
}

// healthy reports whether a phone is a sound migration target or spare: in
// service, enough battery headroom, and not predicted to leave.
func (f *forecast) healthy(i int, p *Phone) bool {
	if _, bad := f.doomed[i]; bad {
		return false
	}
	return p.BatteryFraction <= 0 || p.BatteryFraction >= minBatteryFraction
}

// runForecast builds the hazard view for one snapshot and updates the
// engine's departure-rate EWMA from the per-domain departure counters.
func (e *Engine) runForecast(s *Snapshot) *forecast {
	f := &forecast{doomed: make(map[int]hazard), rate: make([]float64, len(s.Domains))}
	for i := range s.Phones {
		p := &s.Phones[i]
		if h, ok := forecastPhone(s, p); ok && h.In <= e.cfg.HazardHorizon {
			f.doomed[i] = h
		}
	}

	// Poisson departure-rate per domain: differentiate the cumulative
	// counters across plans into phones/minute, smoothed with an EWMA so
	// one noisy window neither starves nor floods the spare pools.
	if len(e.departRate) != len(s.Domains) {
		e.departRate = make([]float64, len(s.Domains))
		e.lastDeparts = make([]int64, len(s.Domains))
		for i := range s.Domains {
			e.lastDeparts[i] = s.Domains[i].Departures
		}
		e.lastNow = s.Now
	} else if dt := s.Now - e.lastNow; dt > 0 {
		const alpha = 0.5
		perMin := float64(time.Minute) / float64(dt)
		for i := range s.Domains {
			obs := float64(s.Domains[i].Departures-e.lastDeparts[i]) * perMin
			e.departRate[i] = alpha*obs + (1-alpha)*e.departRate[i]
			e.lastDeparts[i] = s.Domains[i].Departures
		}
		e.lastNow = s.Now
	}
	copy(f.rate, e.departRate)
	return f
}

func hazardReason(h hazard) string {
	return fmt.Sprintf("evac:%s(%s)", h.Reason, h.In.Round(time.Second))
}
