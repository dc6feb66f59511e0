package main

import (
	"time"

	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
)

// tracedOp carries the Operator methods every wrapper shares. Snapshot and
// Restore are timed, and a snapshot also notes the operator's state size,
// read on the snapshotting goroutine; the rest forward untouched.
type tracedOp struct {
	inner operator.Operator
	rec   *recorder
}

func (w *tracedOp) ID() string                        { return w.inner.ID() }
func (w *tracedOp) Cost(t *tuple.Tuple) time.Duration { return w.inner.Cost(t) }
func (w *tracedOp) StateSize() int                    { return w.inner.StateSize() }

func (w *tracedOp) Snapshot() ([]byte, error) {
	if !w.rec.on.Load() {
		return w.inner.Snapshot()
	}
	start := w.rec.stamp()
	b, err := w.inner.Snapshot()
	w.rec.add(spanSnapshot, "", 0, start)
	w.rec.noteState(w.inner.ID(), w.inner.StateSize())
	return b, err
}

func (w *tracedOp) Restore(data []byte) error {
	if !w.rec.on.Load() {
		return w.inner.Restore(data)
	}
	start := w.rec.stamp()
	err := w.inner.Restore(data)
	w.rec.add(spanRestore, "", 0, start)
	return err
}

// procPart times the emit-context contract.
type procPart struct {
	p   operator.Processor
	rec *recorder
}

func (w procPart) Process(ctx *operator.Context, from string, t *tuple.Tuple) error {
	if !w.rec.on.Load() {
		return w.p.Process(ctx, from, t)
	}
	w.rec.hops.Add(1)
	start := w.rec.stamp()
	err := w.p.Process(ctx, from, t)
	w.rec.add(spanProcess, t.Source, t.Seq, start)
	return err
}

// legacyPart times the []Out contract.
type legacyPart struct {
	p   operator.LegacyProcessor
	rec *recorder
}

func (w legacyPart) Process(from string, t *tuple.Tuple) ([]operator.Out, error) {
	if !w.rec.on.Load() {
		return w.p.Process(from, t)
	}
	w.rec.hops.Add(1)
	start := w.rec.stamp()
	outs, err := w.p.Process(from, t)
	w.rec.add(spanProcess, t.Source, t.Seq, start)
	return outs, err
}

// deltaPart times incremental snapshots as snapshots.
type deltaPart struct {
	d   operator.DeltaSnapshotter
	rec *recorder
}

func (w deltaPart) SnapshotDelta(since uint64) ([]byte, bool) {
	if !w.rec.on.Load() {
		return w.d.SnapshotDelta(since)
	}
	start := w.rec.stamp()
	b, ok := w.d.SnapshotDelta(since)
	w.rec.add(spanSnapshot, "", 0, start)
	w.rec.noteState(w.d.ID(), w.d.StateSize())
	return b, ok
}

func (w deltaPart) MarkSnapshot(v uint64) { w.d.MarkSnapshot(v) }

type keyedPart struct{ k operator.KeyedStater }

func (w keyedPart) KeyedState() *operator.KeyedState { return w.k.KeyedState() }

type timerPart struct {
	t   operator.TimerOperator
	rec *recorder
}

func (w timerPart) OnTimer(ctx *operator.Context, at time.Duration) error {
	if !w.rec.on.Load() {
		return w.t.OnTimer(ctx, at)
	}
	start := w.rec.stamp()
	err := w.t.OnTimer(ctx, at)
	w.rec.add(spanProcess, "", 0, start)
	return err
}

type renamePart struct{ r operator.Renamable }

func (w renamePart) SetID(id string) { w.r.SetID(id) }

// opParts holds every part an operator could need; combineParts picks the ones
// its mask selects.
type opParts struct {
	proc   procPart
	legacy legacyPart
	delta  deltaPart
	keyed  keyedPart
	timer  timerPart
	rename renamePart
}

// wrapOp returns op behind a traced wrapper with exactly op's interface set.
// An operator implementing neither processing contract is returned bare so
// the runtime reports the wiring bug it would report anyway.
func wrapOp(op operator.Operator, rec *recorder) operator.Operator {
	var p opParts
	mask := 0
	switch o := op.(type) {
	case operator.Processor:
		p.proc = procPart{o, rec}
	case operator.LegacyProcessor:
		p.legacy = legacyPart{o, rec}
		mask |= 1 << 4
	default:
		return op
	}
	if d, ok := op.(operator.DeltaSnapshotter); ok {
		p.delta = deltaPart{d, rec}
		mask |= 1 << 3
	}
	if k, ok := op.(operator.KeyedStater); ok {
		p.keyed = keyedPart{k}
		mask |= 1 << 2
	}
	if t, ok := op.(operator.TimerOperator); ok {
		p.timer = timerPart{t, rec}
		mask |= 1 << 1
	}
	if r, ok := op.(operator.Renamable); ok {
		p.rename = renamePart{r}
		mask |= 1
	}
	return combineParts(mask, &tracedOp{inner: op, rec: rec}, p)
}

// wrapRegistry returns a registry whose factories build traced wrappers of
// reg's operators.
func wrapRegistry(reg operator.Registry, rec *recorder) operator.Registry {
	out := make(operator.Registry, len(reg))
	for id, f := range reg {
		f := f
		out[id] = func() operator.Operator { return wrapOp(f(), rec) }
	}
	return out
}
