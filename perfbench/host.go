package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// hostSnap is the process's cumulative host cost at one instant.
type hostSnap struct {
	cpu      time.Duration // user + system
	allocs   uint64        // heap objects allocated
	gcCycles uint64
	gcPause  time.Duration
}

var hostSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readHost() hostSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(hostSamples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSnap{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   hostSamples[0].Value.Uint64(),
		gcCycles: hostSamples[1].Value.Uint64(),
		gcPause:  time.Duration(ms.PauseTotalNs),
	}
}

// hostMeter scopes host accounting to the measurement window: begin and end
// bracket it, and a sampler goroutine tracks the peak live heap and
// goroutine count in between.
type hostMeter struct {
	begin, end hostSnap
	stop       chan struct{}
	wg         sync.WaitGroup
	heapPeak   uint64
	goroutines int
}

func startHost() *hostMeter {
	m := &hostMeter{stop: make(chan struct{})}
	m.begin = readHost()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(live)
			m.heapPeak = max(m.heapPeak, live[0].Value.Uint64())
			m.goroutines = max(m.goroutines, runtime.NumGoroutine())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish closes the window; the meter's fields are final once it returns.
func (m *hostMeter) finish() {
	m.end = readHost()
	close(m.stop)
	m.wg.Wait()
}
