package placement

import (
	"testing"
	"time"
)

// TestTimeToDeath pins the one battery time-to-death model the planner's
// forecaster and the greedy scheduler share.
func TestTimeToDeath(t *testing.T) {
	for _, c := range []struct {
		name          string
		joules, watts float64
		want          time.Duration
		ok            bool
	}{
		{"draining", 100, 2, 50 * time.Second, true},
		{"sub-second", 1, 4, 250 * time.Millisecond, true},
		{"full battery, slow drain", 18e3, 0.5, 10 * time.Hour, true},
		{"zero drain", 100, 0, 0, false},
		{"charging", 100, -1, 0, false},
		{"zero joules", 0, 2, 0, false},
		{"no telemetry", 0, 0, 0, false},
	} {
		d, ok := TimeToDeath(c.joules, c.watts)
		if d != c.want || ok != c.ok {
			t.Errorf("%s: TimeToDeath(%v, %v) = %v/%v, want %v/%v", c.name, c.joules, c.watts, d, ok, c.want, c.ok)
		}
	}
}
