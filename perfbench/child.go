package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"time"
)

// Every measured deployment runs in a child process of its own: the
// runtime does not free everything a stopped region held (nodes of phones
// that left keep running), so deployments sharing a process would inherit
// each other's heap, goroutines and CPU.

// A child sets its deployment up warmSetups times untimed, then
// timedSetups times timed, and measures the last one.
const warmSetups, timedSetups = 3, 8

// runChild sets up one deployment, measures it for wall and writes its
// report, gob-encoded, as all of its standard output.
func runChild(stdout io.Writer, s *spec, seed int64, wall time.Duration, rec *recorder, spansPath string) error {
	// If the deployment wedges, leave its goroutine stacks for diagnosis
	// and fail before the parent gives up on this child.
	watchdog := time.AfterFunc(childLimit(s, wall)-5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: deployment wedged; goroutines:")
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(1)
	})
	defer watchdog.Stop()
	// Throwaway deployments first: the ones after them reuse heap and
	// code the process has already touched, as in a long-running process,
	// instead of faulting fresh pages in during set-up or the window. The
	// first timed set-ups of a child still ran about a third slower than
	// its last ones after a single throwaway.
	var d *deployment
	var setups []float64
	for i := 0; i < warmSetups+timedSetups; i++ {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		var took time.Duration
		var err error
		var r *recorder // only the measured deployment is traced
		if i == warmSetups+timedSetups-1 {
			r = rec
		}
		if d, took, err = setup(s, seed, r); err != nil {
			return err
		}
		if i >= warmSetups {
			setups = append(setups, took.Seconds())
		}
	}
	runtime.GC()
	rep := analyse(d, measure(d, wall))
	rep.SetupS = setups
	if rec != nil {
		if err := rec.write(spansPath, rec.selfTimes()); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		rep.SpanNote = fmt.Sprintf("%d spans (%d beyond the cap) in %s", len(rec.spans), rec.dropped, spansPath)
	}
	if err := gob.NewEncoder(stdout).Encode(rep); err != nil {
		return err
	}
	// The report is out; a teardown that hangs is reported, not waited on.
	stopped := make(chan struct{})
	go func() {
		d.stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		fmt.Fprintln(os.Stderr, "perfbench: deployment did not stop within 10 s; goroutines:")
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
	}
	return nil
}

// childLimit bounds a child's wall time: its window, warmup and drain,
// plus a minute for set-up, teardown and host stalls.
func childLimit(s *spec, wall time.Duration) time.Duration {
	return wall + time.Duration(float64(s.warmup+s.drain)/s.speedup) + time.Minute
}

// spawn runs one deployment in a child process and returns its report.
// The child is killed if it outlives limit.
func spawn(limit time.Duration, args ...string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("deployment %v: %w", args, err)
	}
	var rep report
	if err := gob.NewDecoder(bytes.NewReader(out)).Decode(&rep); err != nil {
		return nil, fmt.Errorf("deployment %v: report: %w", args, err)
	}
	return &rep, nil
}
