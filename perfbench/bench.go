package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	bcpapp "mobistreams/internal/apps/bcp"
	"mobistreams/internal/clock"
	"mobistreams/internal/controller"
	"mobistreams/internal/operator"
	"mobistreams/internal/phone"
	"mobistreams/internal/region"
	"mobistreams/internal/simnet"
	"mobistreams/internal/tuple"
)

// stream is one source the driver feeds: tuple k is due at
// offset + k×period after the driver starts, plus a uniform position
// within its period when jitter is set, and gets sequence number k+1.
type stream struct {
	src    string
	size   int
	kind   string
	period time.Duration
	offset time.Duration
	jitter *rand.Rand
	value  func(k int) interface{}
}

func (s *stream) due(base time.Duration, k int) time.Duration {
	at := base + s.offset + time.Duration(k)*s.period
	if s.jitter != nil {
		at += time.Duration(s.jitter.Int63n(int64(s.period)))
	}
	return at
}

// output is one deduplicated sink result as the region published it.
type output struct {
	src     string
	seq     uint64
	created time.Duration // when the region ingested the source tuple
	at      time.Duration
	val     interface{}
}

// deployment is one running system under test plus the benchmark's hooks
// into it.
type deployment struct {
	spec   *spec
	scaled *clock.Scaled // the benchmark's own clock reads go here
	clk    clock.Clock   // what the program gets: scaled, or traced
	rec    *recorder     // nil when untraced

	r       *region.Region
	ctrl    *controller.Controller
	cell    *simnet.Cellular
	phones  map[simnet.NodeID]*phone.Phone // kept once failed, for their energy
	streams []stream
	// inject fails phones at faultAt(mid-window); injectAt records when.
	inject    func()
	faultAt   func(after time.Duration) time.Duration
	injectAt  time.Duration
	ctrlStart time.Duration // when the controller's checkpoint clock started

	mu   sync.Mutex
	outs []output
}

// setup builds and starts a deployment; it returns the wall time that took.
func setup(s *spec, seed int64, rec *recorder) (*deployment, time.Duration, error) {
	start := time.Now()
	d := &deployment{spec: s, scaled: clock.NewScaled(s.speedup), rec: rec, phones: make(map[simnet.NodeID]*phone.Phone)}
	d.clk = d.scaled
	if rec != nil {
		d.clk = tracedClock{inner: d.scaled, rec: rec}
	}
	if err := s.deploy(d, seed); err != nil {
		return nil, 0, fmt.Errorf("%s: deploy: %w", s.name, err)
	}
	for _, id := range d.r.AlivePhones() {
		d.phones[id] = d.r.Phone(id)
	}
	d.r.Start()
	if d.ctrl != nil {
		d.ctrl.Start()
		d.ctrlStart = d.scaled.Now()
	}
	return d, time.Since(start), nil
}

func (d *deployment) stop() {
	d.r.Stop()
	if d.ctrl != nil {
		d.ctrl.Stop()
	}
}

// registry wraps the application's factories for the traced run.
func (d *deployment) registry(reg operator.Registry) operator.Registry {
	if d.rec == nil {
		return reg
	}
	return wrapRegistry(reg, d.rec)
}

func (d *deployment) onSink(_ simnet.NodeID, t *tuple.Tuple) {
	var start int64
	traced := d.rec != nil && d.rec.on.Load()
	if traced {
		start = d.rec.stamp()
	}
	o := output{src: t.Source, seq: t.Seq, created: t.Created, at: d.scaled.Now(), val: t.Value}
	d.mu.Lock()
	d.outs = append(d.outs, o)
	d.mu.Unlock()
	if traced {
		d.rec.add(spanSink, t.Source, t.Seq, start)
	}
}

// driver is the open-loop load generator: one goroutine ingesting every
// stream on its absolute schedule, however late the system runs.
type driver struct {
	d *deployment
	// dues[i][k] is when tuple k of stream i was due; late[i][k] how long
	// after that the driver called Ingest. Written by the driver goroutine
	// only and read after done closes.
	dues [][]time.Duration
	late [][]time.Duration
	stop chan struct{}
	done chan struct{}
}

func startDriver(d *deployment) *driver {
	dr := &driver{
		d:    d,
		dues: make([][]time.Duration, len(d.streams)),
		late: make([][]time.Duration, len(d.streams)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	next := make([]time.Duration, len(d.streams))
	base := d.scaled.Now()
	for i := range d.streams {
		next[i] = d.streams[i].due(base, 0)
	}
	go func() {
		defer close(dr.done)
		for {
			i := 0
			for j := range next {
				if next[j] < next[i] {
					i = j
				}
			}
			if wait := next[i] - d.scaled.Now(); wait > 0 {
				d.scaled.Sleep(wait)
			}
			select {
			case <-dr.stop:
				return
			default:
			}
			s := &d.streams[i]
			k := len(dr.dues[i])
			v := s.value(k)
			now := d.scaled.Now()
			if d.rec != nil && d.rec.on.Load() {
				start := d.rec.stamp()
				d.r.Ingest(s.src, v, s.size, s.kind)
				d.rec.add(spanIngest, s.src, uint64(k+1), start)
			} else {
				d.r.Ingest(s.src, v, s.size, s.kind)
			}
			dr.dues[i] = append(dr.dues[i], next[i])
			dr.late[i] = append(dr.late[i], now-next[i])
			next[i] = s.due(base, k+1)
		}
	}()
	return dr
}

func (dr *driver) halt() {
	close(dr.stop)
	<-dr.done
}

// counters is a snapshot of the program's cumulative counters.
type counters struct {
	data, ckpt, repl int64
	cross, uni       int64
	cell             int64
	airtime          []time.Duration
	energy           map[simnet.NodeID]float64
	cpu              map[simnet.NodeID]time.Duration
	dups, drops      int64
	recoveries       int
	migrations       int
	commits, aborts  int
	committed        uint64
}

func (d *deployment) snapshot() counters {
	w := d.r.WiFi()
	c := counters{
		data:   w.Counters.Bytes(simnet.ClassData),
		ckpt:   w.Counters.Bytes(simnet.ClassCheckpoint) + w.Counters.Bytes(simnet.ClassBitmap),
		repl:   w.Counters.Bytes(simnet.ClassReplication) + w.Counters.Bytes(simnet.ClassPreserve),
		energy: make(map[simnet.NodeID]float64),
		cpu:    make(map[simnet.NodeID]time.Duration),
		dups:   d.r.DuplicateOutputs(),
		drops:  d.r.InboxDrops(),
	}
	c.cross, c.uni = w.CrossChannelBytes()
	for _, cs := range w.ChannelStats() {
		c.airtime = append(c.airtime, cs.Airtime)
	}
	for id, ph := range d.phones {
		c.energy[id] = ph.EnergyJoules()
		c.cpu[id] = ph.CPUBusy()
	}
	if d.cell != nil {
		c.cell = d.cell.Counters.TotalBytes()
	}
	if d.ctrl != nil {
		id := d.r.ID()
		c.recoveries = d.ctrl.Recoveries(id)
		c.migrations = d.ctrl.Migrations(id)
		c.commits, c.aborts = d.ctrl.PlanStats(id)
		c.committed = d.ctrl.Committed(id)
	}
	return c
}

// ctrlWatch polls the controller during the traced window and stamps, in
// simulated time, each recovery and each newly committed checkpoint.
type ctrlWatch struct {
	recoveries []time.Duration
	commits    map[uint64]time.Duration
	stop       chan struct{}
	done       chan struct{}
}

func watchController(d *deployment) *ctrlWatch {
	w := &ctrlWatch{commits: make(map[uint64]time.Duration), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		id := d.r.ID()
		rec, committed := d.ctrl.Recoveries(id), d.ctrl.Committed(id)
		for {
			select {
			case <-w.stop:
				return
			case <-time.After(time.Millisecond):
			}
			now := d.scaled.Now()
			if n := d.ctrl.Recoveries(id); n > rec {
				for ; rec < n; rec++ {
					w.recoveries = append(w.recoveries, now)
				}
			}
			if v := d.ctrl.Committed(id); v > committed {
				for committed < v {
					committed++
					w.commits[committed] = now
				}
			}
		}
	}()
	return w
}

func (w *ctrlWatch) halt() {
	close(w.stop)
	<-w.done
}

// window is everything one measured run collected.
type window struct {
	start, end     time.Duration   // simulated
	bounds         []time.Duration // slice boundaries, start to end
	hosts          []hostSnap      // host cost at each boundary
	before, after  counters
	host           *hostMeter
	dr             *driver
	outs           []output
	watch          *ctrlWatch
	ckptPauseMean  time.Duration
	ckptPauseMax   time.Duration
	ckptCount      int64
	ckptBlob       int64
	ckptDeltaRatio float64
	batchMean      float64
	waitP99        int64
	depthP99       int64
	dead           bool
	unrecovered    []string
}

// measure drives a started deployment: warmup, the measurement window of
// the given wall length, then a drain. The deployment is left running.
func measure(d *deployment, wall time.Duration) *window {
	s := d.spec
	dr := startDriver(d)
	d.scaled.Sleep(s.warmup)

	w := &window{dr: dr}
	reg := d.r.Obs()
	for _, h := range reg.Waits() {
		h.Hist.Reset()
	}
	for _, h := range reg.Depths() {
		h.Hist.Reset()
	}
	d.r.BatchStats().Reset()
	d.r.CkptStats().Reset()
	w.before = d.snapshot()
	if d.rec != nil && d.ctrl != nil {
		w.watch = watchController(d)
	}
	w.start = d.scaled.Now()
	w.host = startHost()
	if d.rec != nil {
		d.rec.on.Store(true)
	}

	length := time.Duration(float64(wall) * s.speedup)
	w.bounds, w.hosts = []time.Duration{w.start}, []hostSnap{w.host.begin}
	for i := 1; i <= s.slices; i++ {
		at := w.start + length*time.Duration(i)/time.Duration(s.slices)
		if d.inject != nil && d.injectAt == 0 {
			if f := d.faultAt(w.start + length/2); at > f {
				d.scaled.Sleep(f - d.scaled.Now())
				d.injectAt = d.scaled.Now()
				d.inject()
			}
		}
		d.scaled.Sleep(at - d.scaled.Now())
		w.bounds = append(w.bounds, d.scaled.Now())
		w.hosts = append(w.hosts, readHost())
	}

	w.host.finish()
	if d.rec != nil {
		d.rec.on.Store(false)
	}
	w.end = d.scaled.Now()
	w.after = d.snapshot()
	st := d.r.CkptStats()
	w.ckptPauseMean, w.ckptPauseMax, w.ckptCount = st.PauseMean(), st.PauseMax(), st.Count()
	w.ckptBlob, _ = st.Bytes()
	w.ckptDeltaRatio = st.DeltaRatio()
	w.batchMean = d.r.BatchStats().Mean()
	for _, h := range reg.Waits() {
		w.waitP99 = max(w.waitP99, h.Hist.Percentile(99))
	}
	for _, h := range reg.Depths() {
		w.depthP99 = max(w.depthP99, h.Hist.Percentile(99))
	}
	if w.watch != nil {
		w.watch.halt()
	}

	dr.halt()
	deadline := d.scaled.Now() + s.drain
	for d.scaled.Now() < deadline && !(s.oneToOne && d.allDelivered(dr)) {
		d.scaled.Sleep(s.drain / 100)
	}
	if d.ctrl != nil {
		w.dead = d.ctrl.RegionDead(d.r.ID())
		for _, slot := range d.r.Graph().Slots() {
			if id, ok := d.r.Placement(slot); !ok || d.r.Failed(id) {
				w.unrecovered = append(w.unrecovered, slot)
			}
		}
	}
	d.mu.Lock()
	w.outs = append([]output(nil), d.outs...)
	d.mu.Unlock()
	return w
}

// allDelivered reports whether the sink has published as many outputs as
// the driver ingested (a cheap drain condition; the checks run after).
func (d *deployment) allDelivered(dr *driver) bool {
	n := 0
	for _, dues := range dr.dues {
		n += len(dues)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.outs) >= n
}

// report is one deployment's or one run's metrics and checks. A child
// process hands its report to the parent as gob, which, unlike JSON,
// carries the NaN that marks a layer with no work.
type report struct {
	Correct           bool
	Problems          []string
	Attempted, Failed int
	Outputs           int // unique sink outputs inside the window
	TailPct           float64
	TailBeyond        int
	E2E               map[string]float64
	Layer             map[string]float64 // NaN: the layer did no work

	// Per-slice figures and window totals, kept so that the reports of
	// several deployments combine into one.
	P50s, Tails, CPUs, Allocs []float64
	// Lats holds every latency sample of a workload measured in whole
	// windows, whose percentiles are taken over all its deployments
	// pooled: their tails come from rare events (a recovery), and a pool
	// holds more of them than any one window.
	Lats           []float64
	SimSec, DrawnJ float64
	HeapPeakMB     []float64
	CkptPauseMs    []float64
	SetupS         []float64 // every set-up the deployment timed
	SpanNote       string    // where the traced run's spans went
}

// combine merges the reports of several deployments of one workload:
// counts and totals add up, and the per-slice figures of all of them give
// the medians.
func combine(reps []*report) *report {
	c := &report{Correct: true, E2E: map[string]float64{}, TailPct: reps[0].TailPct, TailBeyond: reps[0].TailBeyond}
	var outage float64
	for _, r := range reps {
		c.Correct = c.Correct && r.Correct
		c.Problems = append(c.Problems, r.Problems...)
		c.Attempted += r.Attempted
		c.Failed += r.Failed
		c.Outputs += r.Outputs
		c.TailPct = min(c.TailPct, r.TailPct)
		c.TailBeyond = min(c.TailBeyond, r.TailBeyond)
		c.P50s = append(c.P50s, r.P50s...)
		c.Tails = append(c.Tails, r.Tails...)
		c.Lats = append(c.Lats, r.Lats...)
		c.CPUs = append(c.CPUs, r.CPUs...)
		c.Allocs = append(c.Allocs, r.Allocs...)
		c.SimSec += r.SimSec
		c.DrawnJ += r.DrawnJ
		c.HeapPeakMB = append(c.HeapPeakMB, r.HeapPeakMB...)
		c.CkptPauseMs = append(c.CkptPauseMs, r.CkptPauseMs...)
		c.SetupS = append(c.SetupS, r.SetupS...)
		outage += r.E2E["outage_s"]
	}
	out := float64(c.Outputs)
	c.E2E["sim_tput_tps"] = out / c.SimSec
	if len(c.Lats) > 0 {
		sort.Float64s(c.Lats)
		c.E2E["sim_lat_p50_ms"] = percentile(c.Lats, 50)
		c.E2E["sim_lat_tail_ms"] = percentile(c.Lats, c.TailPct)
		c.TailBeyond = len(c.Lats) - int(math.Ceil(c.TailPct/100*float64(len(c.Lats))))
	} else {
		c.E2E["sim_lat_p50_ms"] = median(c.P50s)
		c.E2E["sim_lat_tail_ms"] = median(c.Tails)
	}
	c.E2E["energy_mj_per_tuple"] = ratio(c.DrawnJ*1e3, out)
	c.E2E["host_cpu_us_per_tuple"] = median(c.CPUs)
	c.E2E["host_allocs_per_tuple"] = median(c.Allocs)
	c.E2E["host_heap_peak_mb"] = median(c.HeapPeakMB)
	// Interference from other processes only ever adds to a set-up's
	// time, so the lower quartile of the set-ups tracks the program and
	// not the host's load.
	sort.Float64s(c.SetupS)
	c.E2E["setup_s"] = percentile(c.SetupS, 25)
	c.E2E["fail_ratio"] = float64(c.Failed) / float64(max(c.Attempted, 1))
	c.E2E["outage_s"] = outage
	c.E2E["ckpt_pause_ms"] = median(c.CkptPauseMs)
	return c
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// sample is one output's latency, by the due time of its input.
type sample struct{ due, ms float64 }

// tally checks a window's outputs against what the driver sent and counts
// its ops and failed ops. Each output is known by an identity that the
// region's (source, seq) dedup does not use, so a duplicate that got past
// the dedup under another (source, seq) still counts: on the trees the
// payload token, on BCP the source and the ingest time the tuple carries.
// It returns the outputs published inside the window and the latency of
// every first output whose input was due inside it.
func tally(oneToOne bool, streams []stream, dues [][]time.Duration, outs []output, start, end time.Duration,
	bad func(string, ...interface{})) (attempted, failed int, inWindow []float64, lats []sample) {
	streamOf := make(map[string]int)
	for i, st := range streams {
		streamOf[st.src] = i
	}
	type ingest struct {
		src     string
		created time.Duration
	}
	byToken := make(map[token]int)
	byIngest := make(map[ingest]int)
	for _, o := range outs {
		i, ok := streamOf[o.src]
		if !ok || o.seq < 1 || int(o.seq) > len(dues[i]) {
			bad("output %s#%d was never ingested", o.src, o.seq)
			continue
		}
		if oneToOne {
			tok, ok := o.val.(token)
			if !ok {
				bad("output %s#%d carries %v, not a token", o.src, o.seq, o.val)
				continue
			}
			if tok != (token{i, int(o.seq) - 1}) {
				bad("output %s#%d carries %v, not its input", o.src, o.seq, o.val)
			}
			if byToken[tok]++; byToken[tok] > 1 {
				continue
			}
		} else {
			checkBCP(o, len(dues[1]), bad)
			k := ingest{o.src, o.created}
			if byIngest[k]++; byIngest[k] > 1 {
				continue
			}
		}
		if o.at >= start && o.at < end {
			inWindow = append(inWindow, float64(o.at))
		}
		if due := dues[i][o.seq-1]; due >= start && due < end {
			lats = append(lats, sample{float64(due), float64(o.at-due) / 1e6})
		}
	}
	if oneToOne {
		// An op is a tuple due inside the window; it must be published
		// exactly once.
		for i, ds := range dues {
			for k, due := range ds {
				if due >= start && due < end {
					attempted++
					if byToken[token{i, k}] != 1 {
						failed++
					}
				}
			}
		}
	} else {
		// An op is a distinct published output; it fails if it was
		// published more than once.
		attempted = len(byIngest)
		for _, n := range byIngest {
			if n > 1 {
				failed++
			}
		}
	}
	return attempted, failed, inWindow, lats
}

// analyse checks the outputs and derives every metric of one window.
func analyse(d *deployment, w *window) *report {
	s := d.spec
	rep := &report{Correct: true, E2E: map[string]float64{}, Layer: map[string]float64{}}
	bad := func(format string, a ...interface{}) {
		rep.Correct = false
		if len(rep.Problems) < 10 {
			rep.Problems = append(rep.Problems, fmt.Sprintf(format, a...))
		}
	}
	var inWindow []float64
	var lats []sample
	rep.Attempted, rep.Failed, inWindow, lats = tally(s.oneToOne, d.streams, w.dr.dues, w.outs, w.start, w.end, bad)
	rep.Outputs = len(inWindow)
	if rep.Outputs == 0 {
		bad("no sink output inside the measurement window")
	}
	if d.ctrl != nil {
		recovered := w.after.recoveries > w.before.recoveries && len(w.unrecovered) == 0
		if w.dead || !recovered {
			rep.Failed = rep.Attempted
			bad("region dead=%v, recoveries=%d, slots on failed phones: %v", w.dead, w.after.recoveries-w.before.recoveries, w.unrecovered)
		}
	}

	simSec := (w.end - w.start).Seconds()
	out := float64(rep.Outputs)
	sort.Float64s(inWindow)

	// Latency and host cost are taken per slice of the window, by due time
	// and output time, and reported as the median over slices, so a host
	// stall in one slice does not move the run's figure.
	slices := len(w.bounds) - 1
	rep.TailPct = s.tail
	for i := 0; i < slices; i++ {
		lo, hi := float64(w.bounds[i]), float64(w.bounds[i+1])
		var l []float64
		for _, x := range lats {
			if x.due >= lo && x.due < hi {
				l = append(l, x.ms)
			}
		}
		sort.Float64s(l)
		rep.P50s = append(rep.P50s, percentile(l, 50))
		rep.Tails = append(rep.Tails, percentile(l, rep.TailPct))
		if beyond := len(l) - int(math.Ceil(s.tail/100*float64(len(l)))); i == 0 || beyond < rep.TailBeyond {
			rep.TailBeyond = beyond
		}
		n := float64(sort.SearchFloat64s(inWindow, hi) - sort.SearchFloat64s(inWindow, lo))
		rep.CPUs = append(rep.CPUs, ratio(float64(w.hosts[i+1].cpu-w.hosts[i].cpu)/1e3, n))
		rep.Allocs = append(rep.Allocs, ratio(float64(w.hosts[i+1].allocs-w.hosts[i].allocs), n))
	}
	// Outage: sink silence beyond the threshold, within the window.
	var outage time.Duration
	last := w.start
	for _, at := range append(inWindow, float64(w.end)) {
		if gap := time.Duration(at) - last; gap > s.gap {
			outage += gap - s.gap
		}
		last = time.Duration(at)
	}

	for id, e := range w.after.energy {
		rep.DrawnJ += w.before.energy[id] - e
	}
	if slices == 1 {
		for _, x := range lats {
			rep.Lats = append(rep.Lats, x.ms)
		}
	}
	rep.SimSec = simSec
	rep.HeapPeakMB = []float64{float64(w.host.heapPeak) / 1e6}
	if w.ckptCount > 0 {
		rep.CkptPauseMs = []float64{float64(w.ckptPauseMean) / 1e6}
	}
	rep.E2E["outage_s"] = outage.Seconds()
	rep.E2E = combine([]*report{rep}).E2E

	layerMetrics(d, w, rep, out, simSec)
	return rep
}

// checkBCP checks one BCP prediction against the planted inputs: corrupt
// bus readings never reach the sink, and predictions are well formed and
// name a bus that was sent (buses is how many were).
func checkBCP(o output, buses int, bad func(string, ...interface{})) {
	p, ok := o.val.(bcpapp.Prediction)
	if !ok {
		bad("output %s#%d carries %T, not a prediction", o.src, o.seq, o.val)
		return
	}
	if math.IsNaN(p.OnBoard) || p.OnBoard < 0 {
		bad("output %s#%d predicts %v on board", o.src, o.seq, p.OnBoard)
	}
	if o.src == "S0" {
		if bcpCorrupt(int(o.seq) - 1) {
			bad("corrupt bus reading %d reached the sink", o.seq)
		}
		if p.BusSeq != o.seq {
			bad("bus output %d predicts for bus %d", o.seq, p.BusSeq)
		}
	}
	if p.BusSeq > uint64(buses) {
		bad("output %s#%d predicts for bus %d, never sent", o.src, o.seq, p.BusSeq)
	}
}

// layerMetrics fills the per-layer metrics; NaN marks a layer that did no
// work in this workload.
func layerMetrics(d *deployment, w *window, rep *report, out, simSec float64) {
	L := rep.Layer
	b, a := w.before, w.after
	var late []float64
	for i, dues := range w.dr.dues {
		for k, due := range dues {
			if due >= w.start && due < w.end {
				late = append(late, float64(w.dr.late[i][k])/1e6)
			}
		}
	}
	sort.Float64s(late)
	nan := math.NaN()
	orNaN := func(v float64, did bool) float64 {
		if !did {
			return nan
		}
		return v
	}
	L["region.gen_late_ms_p99"] = percentile(late, 99)
	L["region.dup_suppressed"] = float64(a.dups - b.dups)
	L["node.queue_wait_ms_p99"] = float64(w.waitP99) / 1e6
	L["node.queue_depth_p99"] = float64(w.depthP99)
	L["node.batch_mean"] = w.batchMean
	L["node.inbox_drops"] = float64(a.drops - b.drops)

	var cpuMax float64
	for id, busy := range a.cpu {
		cpuMax = math.Max(cpuMax, (busy-b.cpu[id]).Seconds()/simSec)
	}
	L["phone.cpu_util_max"] = cpuMax
	var airMax float64
	for i, at := range a.airtime {
		airMax = math.Max(airMax, (at-b.airtime[i]).Seconds()/simSec)
	}
	L["simnet.airtime_util_max"] = airMax
	L["simnet.data_bytes_per_tuple"] = ratio(float64(a.data-b.data), out)
	ms := d.ctrl != nil // the ms scheme runs under a controller
	L["simnet.ckpt_mb"] = orNaN(float64(a.ckpt-b.ckpt)/1e6, ms)
	L["simnet.repl_mb"] = orNaN(float64(a.repl-b.repl)/1e6, ms)
	L["simnet.cross_channel_share"] = ratio(float64(a.cross-b.cross), float64(a.uni-b.uni))
	L["simnet.cell_mb"] = orNaN(float64(a.cell-b.cell)/1e6, d.cell != nil)

	L["checkpoint.pause_max_ms"] = orNaN(float64(w.ckptPauseMax)/1e6, w.ckptCount > 0)
	L["checkpoint.blob_mb_per_ckpt"] = orNaN(ratio(float64(w.ckptBlob)/1e6, float64(w.ckptCount)), w.ckptCount > 0)
	L["checkpoint.delta_ratio"] = orNaN(w.ckptDeltaRatio, w.ckptCount > 0)
	L["checkpoint.commits"] = orNaN(float64(a.committed-b.committed), d.ctrl != nil)
	L["checkpoint.commit_lag_s"] = nan
	L["controller.detect_s"] = nan
	L["controller.restore_s"] = nan
	if w.watch != nil {
		L["checkpoint.commit_lag_s"] = commitLag(d, w)
		if d.inject != nil && len(w.watch.recoveries) > 0 {
			detected := w.watch.recoveries[0]
			L["controller.detect_s"] = (detected - d.injectAt).Seconds()
			for _, o := range w.outs {
				if o.at > detected {
					L["controller.restore_s"] = (o.at - detected).Seconds()
					break
				}
			}
		}
	}
	ctl := d.ctrl != nil
	L["controller.migrations"] = orNaN(float64(a.migrations-b.migrations), ctl)
	L["controller.recoveries"] = orNaN(float64(a.recoveries-b.recoveries), ctl)
	L["controller.plan_commits"] = orNaN(float64(a.commits-b.commits), ctl)
	L["controller.plan_aborts"] = orNaN(float64(a.aborts-b.aborts), ctl)

	L["host.gc_cycles"] = float64(w.host.end.gcCycles - w.host.begin.gcCycles)
	L["host.gc_pause_ms"] = float64(w.host.end.gcPause-w.host.begin.gcPause) / 1e6
	L["host.goroutines_peak"] = float64(w.host.goroutines)

	rec := d.rec
	if rec == nil {
		return
	}
	rec.link()
	self := rec.selfTimes()
	ingest := rec.stats(spanIngest, self)
	proc := rec.stats(spanProcess, self)
	snaps := rec.stats(spanSnapshot, self)
	sort.Float64s(snaps.durs)
	hops := float64(rec.hops.Load())
	L["region.ingest_ns"] = ingest.meanSelf
	L["operator.process_ns_per_tuple"] = ratio(proc.meanSelf*hops, out)
	L["operator.hops_per_tuple"] = ratio(hops, out)
	L["operator.snapshot_ms_p99"] = orNaN(percentile(snaps.durs, 99)/1e6, snaps.n > 0)
	L["operator.state_mb"] = orNaN(float64(rec.stateBytes())/1e6, rec.stateBytes() > 0)
	L["clock.now_per_tuple"] = ratio(float64(rec.nows.Load()), out)
	L["clock.sleep_per_tuple"] = ratio(float64(rec.calls[spanSleep].Load()+rec.calls[spanAfter].Load()), out)
}

// commitLag is the mean simulated time from a checkpoint round's first
// ckpt.begin journal event to the controller's commit of that version.
func commitLag(d *deployment, w *window) float64 {
	begins := make(map[uint64]time.Duration)
	for _, e := range d.r.Obs().Journal.Events() {
		if e.Kind != "ckpt.begin" {
			continue
		}
		if at, ok := begins[e.Version]; !ok || time.Duration(e.At) < at {
			begins[e.Version] = time.Duration(e.At)
		}
	}
	var sum time.Duration
	n := 0
	for v, at := range w.watch.commits {
		if b, ok := begins[v]; ok && at > b {
			sum += at - b
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return (sum / time.Duration(n)).Seconds()
}
