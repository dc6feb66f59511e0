package main

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	bcpapp "mobistreams/internal/apps/bcp"
	"mobistreams/internal/graph"
	"mobistreams/internal/operator"
	"mobistreams/internal/tuple"
)

// ifaceSet lists which optional operator interfaces op implements, in the
// bit order combineParts uses.
func ifaceSet(op operator.Operator) string {
	has := func(ok bool) byte {
		if ok {
			return '1'
		}
		return '0'
	}
	_, proc := op.(operator.Processor)
	_, legacy := op.(operator.LegacyProcessor)
	_, delta := op.(operator.DeltaSnapshotter)
	_, keyed := op.(operator.KeyedStater)
	_, timer := op.(operator.TimerOperator)
	_, rename := op.(operator.Renamable)
	return string([]byte{has(proc), has(legacy), has(delta), has(keyed), has(timer), has(rename)})
}

// fullProc and fullLegacy implement every optional interface, one per
// processing contract; combineParts must keep only what its mask selects.
type fullProc struct{ operator.Base }

func (*fullProc) Process(*operator.Context, string, *tuple.Tuple) error { return nil }
func (*fullProc) SnapshotDelta(uint64) ([]byte, bool)                   { return nil, false }
func (*fullProc) MarkSnapshot(uint64)                                   {}
func (*fullProc) KeyedState() *operator.KeyedState                      { return nil }
func (*fullProc) OnTimer(*operator.Context, time.Duration) error        { return nil }

type fullLegacy struct{ fullProc }

func (*fullLegacy) Process(string, *tuple.Tuple) ([]operator.Out, error) { return nil, nil }

func TestCombinePartsImplementsExactlyItsMask(t *testing.T) {
	rec := newRecorder()
	for mask := 0; mask < 32; mask++ {
		var op operator.Operator = &fullProc{}
		if mask&(1<<4) != 0 {
			op = &fullLegacy{}
		}
		full := op.(interface {
			operator.DeltaSnapshotter
			operator.KeyedStater
			operator.TimerOperator
			operator.Renamable
		})
		p := opParts{
			delta:  deltaPart{full, rec},
			keyed:  keyedPart{full},
			timer:  timerPart{full, rec},
			rename: renamePart{full},
		}
		if lp, ok := op.(operator.LegacyProcessor); ok {
			p.legacy = legacyPart{lp, rec}
		} else {
			p.proc = procPart{op.(operator.Processor), rec}
		}
		bit := func(b int) byte { return byte('0' + mask>>b&1) }
		want := string([]byte{'0' + byte(1-mask>>4&1), bit(4), bit(3), bit(2), bit(1), bit(0)})
		if got := ifaceSet(combineParts(mask, &tracedOp{inner: op, rec: rec}, p)); got != want {
			t.Errorf("mask %05b: interface set %s, want %s", mask, got, want)
		}
	}
}

type legacyDouble struct{ operator.Base }

func (o *legacyDouble) Process(_ string, t *tuple.Tuple) ([]operator.Out, error) {
	c := t.Clone()
	c.Size *= 2
	return []operator.Out{operator.Emit(c)}, nil
}

// benchOperators is every operator the workloads deploy, plus library
// operators that cover the remaining contracts (legacy, keyed, timer).
func benchOperators(t *testing.T) map[string]operator.Factory {
	t.Helper()
	fs := map[string]operator.Factory{
		"legacy": func() operator.Operator { return &legacyDouble{operator.Base{Name: "legacy"}} },
		"tally":  func() operator.Operator { return operator.NewKeyedTally("tally") },
		"window": func() operator.Operator { return operator.NewTimeWindow("window", time.Second) },
		"map": func() operator.Operator {
			return operator.NewMap("map", func(t *tuple.Tuple) *tuple.Tuple { return t.Clone() })
		},
	}
	_, tree, _, err := treeGraph()
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range []operator.Registry{tree, bcpapp.Registry(bcpapp.Params{})} {
		for id, f := range reg {
			fs[id] = f
		}
	}
	return fs
}

func TestWrapOpKeepsInterfaceSet(t *testing.T) {
	rec := newRecorder()
	for id, f := range benchOperators(t) {
		bare, wrapped := f(), wrapOp(f(), rec)
		if a, b := ifaceSet(bare), ifaceSet(wrapped); a != b {
			t.Errorf("%s: wrapped interface set %s, bare %s", id, b, a)
		}
		if wrapped.ID() != bare.ID() {
			t.Errorf("%s: wrapped ID %q", id, wrapped.ID())
		}
	}
}

// emission renders one emission with every tuple field.
func emission(op string, o operator.Out) string {
	return fmt.Sprintf("%s->%s %s#%d %s %dB %v %v %#v", op, o.To, o.T.Source, o.T.Seq, o.T.Kind, o.T.Size, o.T.Created, o.T.Replay, o.T.Value)
}

// runBCP pushes the same camera and bus inputs through the BCP graph,
// operator by operator with operator.Run, and returns every emission and
// each operator's snapshots: a delta against a mark taken halfway, and a
// full snapshot at the end.
func runBCP(t *testing.T, g *graph.Graph, reg operator.Registry) (emits []string, snaps map[string][]byte) {
	t.Helper()
	ops := make(map[string]operator.Operator)
	for _, id := range g.Operators() {
		ops[id] = reg.New(id)
	}
	type item struct {
		op, from string
		t        *tuple.Tuple
	}
	var queue []item
	snaps = make(map[string][]byte)
	for k := 0; k < 40; k++ {
		queue = append(queue, item{"S1", "", &tuple.Tuple{Seq: uint64(k + 1), Source: "S1", Kind: "image", Size: 180 << 10,
			Created: time.Duration(k) * 3 * time.Second, Value: bcpapp.Frame{Planted: k % 7}}})
		if k%5 == 0 {
			queue = append(queue, item{"S0", "", &tuple.Tuple{Seq: uint64(k/5 + 1), Source: "S0", Kind: "businfo", Size: 512,
				Created: time.Duration(k) * 3 * time.Second, Value: bcpapp.BusInfo{OnBoard: float64(10 + k), Corrupt: bcpCorrupt(k / 5)}}})
		}
		for len(queue) > 0 {
			it := queue[0]
			queue = queue[1:]
			outs, err := operator.Run(ops[it.op], it.from, it.t)
			if err != nil {
				t.Fatalf("%s: %v", it.op, err)
			}
			for _, o := range outs {
				emits = append(emits, emission(it.op, o))
				targets := g.Downstream(it.op)
				if o.To != "" {
					targets = []string{o.To}
				}
				for _, to := range targets {
					queue = append(queue, item{to, it.op, o.T})
				}
			}
		}
		if k == 20 {
			for _, op := range ops {
				if ds, ok := op.(operator.DeltaSnapshotter); ok {
					ds.MarkSnapshot(1)
				}
			}
		}
	}
	for id, op := range ops {
		if ds, ok := op.(operator.DeltaSnapshotter); ok {
			patch, ok := ds.SnapshotDelta(1)
			snaps[id+" delta"] = append(patch, fmt.Sprint(ok)...)
		}
		full, err := op.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", id, err)
		}
		snaps[id] = full
	}
	return emits, snaps
}

func TestWrappedBCPMatchesBare(t *testing.T) {
	g, err := bcpapp.Graph()
	if err != nil {
		t.Fatal(err)
	}
	reg := bcpapp.Registry(bcpapp.Params{})
	rec := newRecorder()
	rec.on.Store(true)
	bareEmits, bareSnaps := runBCP(t, g, reg)
	emits, snaps := runBCP(t, g, wrapRegistry(reg, rec))
	if len(bareEmits) == 0 {
		t.Fatal("no emissions")
	}
	if !reflect.DeepEqual(emits, bareEmits) {
		t.Errorf("wrapped emissions differ from bare:\n%v\nvs\n%v", emits, bareEmits)
	}
	for id, b := range bareSnaps {
		if !bytes.Equal(snaps[id], b) {
			t.Errorf("%s: wrapped snapshot differs from bare", id)
		}
	}
	if rec.calls[spanProcess].Load() == 0 || rec.calls[spanSnapshot].Load() == 0 {
		t.Error("the wrapped run recorded no Process or Snapshot spans")
	}
}

// timerRuntime collects emissions and timers for a context outside a node.
type timerRuntime struct {
	emits  []string
	timers []time.Duration
	now    time.Duration
}

func (r *timerRuntime) Emit(t *tuple.Tuple) {
	r.emits = append(r.emits, emission("", operator.Emit(t)))
}
func (r *timerRuntime) EmitTo(to string, t *tuple.Tuple) bool {
	r.emits = append(r.emits, emission("", operator.EmitTo(to, t)))
	return true
}
func (r *timerRuntime) Now() time.Duration             { return r.now }
func (r *timerRuntime) SetTimer(at time.Duration) bool { r.timers = append(r.timers, at); return true }

// TestWrappedKeyedTimerOperatorsMatchBare covers the keyed and timer
// contracts, which operator.Run does not fire, with a runtime that does.
func TestWrappedKeyedTimerOperatorsMatchBare(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	for _, id := range []string{"tally", "window", "legacy", "map"} {
		f := benchOperators(t)[id]
		run := func(op operator.Operator) ([]string, []byte) {
			rt := &timerRuntime{}
			ctx := operator.NewContext(rt)
			if ks, ok := op.(operator.KeyedStater); ok {
				ctx.BindState(ks.KeyedState())
			}
			proc := operator.Proc(op)
			for k := 0; k < 30; k++ {
				rt.now = time.Duration(k) * 300 * time.Millisecond
				in := &tuple.Tuple{Seq: uint64(k + 1), Source: "S", Kind: fmt.Sprintf("key%d", k%3), Size: 100 + k, Created: rt.now, Value: float64(k)}
				if err := proc(ctx, "S", in); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				if th, ok := op.(operator.TimerOperator); ok {
					for len(rt.timers) > 0 && rt.timers[0] <= rt.now {
						at := rt.timers[0]
						rt.timers = rt.timers[1:]
						if err := th.OnTimer(ctx, at); err != nil {
							t.Fatalf("%s: timer: %v", id, err)
						}
					}
				}
			}
			snap, err := op.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot: %v", id, err)
			}
			return rt.emits, snap
		}
		bareEmits, bareSnap := run(f())
		emits, snap := run(wrapOp(f(), rec))
		if len(bareEmits) == 0 {
			t.Errorf("%s: no emissions", id)
		}
		if !reflect.DeepEqual(emits, bareEmits) {
			t.Errorf("%s: wrapped emissions differ from bare", id)
		}
		if !bytes.Equal(snap, bareSnap) {
			t.Errorf("%s: wrapped snapshot differs from bare", id)
		}
	}
}
