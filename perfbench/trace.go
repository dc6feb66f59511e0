package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobistreams/internal/clock"
)

type spanKind uint8

const (
	spanIngest   spanKind = iota // Region.Ingest, called by the driver
	spanProcess                  // operator Process and OnTimer
	spanSnapshot                 // operator Snapshot and SnapshotDelta
	spanRestore                  // operator Restore
	spanSleep                    // clock Sleep
	spanAfter                    // clock After (the call, not the wait)
	spanSink                     // the sink output callback
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"region.Ingest", "operator.Process", "operator.Snapshot", "operator.Restore",
	"clock.Sleep", "clock.After", "region.sink",
}

// span is one timed call at a layer boundary. Spans of one tuple share its
// (src, seq) identifier; parent is filled in by link once the run ends.
type span struct {
	start, end int64 // wall ns since the recorder's epoch
	seq        uint64
	src        string
	g          uintptr // goroutine that made the call (see curg)
	parent     int32
	kind       spanKind
}

// maxSpans bounds the spans kept in memory (about 48 MB). Calls past it are
// still counted, and per-call self time is taken from the kept spans.
const maxSpans = 1 << 20

// recorder keeps the traced run's spans and call counts in memory. Nothing
// is recorded while on is false, which is how the window is scoped.
type recorder struct {
	epoch   time.Time
	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	dropped int64
	calls   [numSpanKinds]atomic.Int64
	hops    atomic.Int64 // Process calls (OnTimer excluded)
	nows    atomic.Int64
	// states is each operator's state size at its latest snapshot.
	states map[string]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16), states: make(map[string]int)}
}

func (r *recorder) noteState(op string, size int) {
	r.mu.Lock()
	r.states[op] = size
	r.mu.Unlock()
}

// stateBytes sums the operators' state sizes at their latest snapshots.
func (r *recorder) stateBytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, size := range r.states {
		n += size
	}
	return n
}

func (r *recorder) stamp() int64 { return int64(time.Since(r.epoch)) }

// add records a span that started at start and ends now.
func (r *recorder) add(kind spanKind, src string, seq uint64, start int64) {
	end := r.stamp()
	g := curg()
	r.calls[kind].Add(1)
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{start: start, end: end, seq: seq, src: src, g: g, parent: -1, kind: kind})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// link sets each span's parent to the innermost span on the same goroutine
// whose interval contains it: a call made inside another call (a Process
// that emits into a co-located operator, which waits on the clock for its
// simulated service time) nests in time on the caller's goroutine.
func (r *recorder) link() {
	idx := make([]int, len(r.spans))
	for i := range idx {
		idx[i] = i
	}
	sp := r.spans
	sort.Slice(idx, func(a, b int) bool {
		x, y := &sp[idx[a]], &sp[idx[b]]
		if x.g != y.g {
			return x.g < y.g
		}
		if x.start != y.start {
			return x.start < y.start
		}
		return x.end > y.end
	})
	var stack []int
	for _, i := range idx {
		s := &sp[i]
		for len(stack) > 0 {
			top := &sp[stack[len(stack)-1]]
			if top.g == s.g && top.end >= s.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			s.parent = int32(stack[len(stack)-1])
		}
		stack = append(stack, i)
	}
}

// selfTimes returns each span's duration minus the time its children cover.
func (r *recorder) selfTimes() []int64 {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerStats summarises the kept spans of one kind.
type layerStats struct {
	n        int
	meanSelf float64 // ns
	durs     []float64
}

func (r *recorder) stats(kind spanKind, self []int64) layerStats {
	var st layerStats
	var sum int64
	for i, s := range r.spans {
		if s.kind != kind {
			continue
		}
		st.n++
		sum += self[i]
		st.durs = append(st.durs, float64(s.end-s.start))
	}
	if st.n > 0 {
		st.meanSelf = float64(sum) / float64(st.n)
	}
	return st
}

// write dumps the spans as CSV (id, parent, goroutine, name, src, seq,
// start_ns, end_ns, self_ns).
func (r *recorder) write(path string, self []int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,goroutine,name,src,seq,start_ns,end_ns,self_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d,%d,%d\n", i, s.parent, s.g, spanNames[s.kind], s.src, s.seq, s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedClock counts Now reads and records Sleep and After calls; the
// region, its nodes, the media and the controller all take it through
// their configs.
type tracedClock struct {
	inner clock.Clock
	rec   *recorder
}

func (c tracedClock) Now() time.Duration {
	if c.rec.on.Load() {
		c.rec.nows.Add(1)
	}
	return c.inner.Now()
}

func (c tracedClock) Sleep(d time.Duration) {
	if !c.rec.on.Load() {
		c.inner.Sleep(d)
		return
	}
	start := c.rec.stamp()
	c.inner.Sleep(d)
	c.rec.add(spanSleep, "", 0, start)
}

func (c tracedClock) After(d time.Duration) <-chan time.Duration {
	if !c.rec.on.Load() {
		return c.inner.After(d)
	}
	start := c.rec.stamp()
	ch := c.inner.After(d)
	c.rec.add(spanAfter, "", 0, start)
	return ch
}
