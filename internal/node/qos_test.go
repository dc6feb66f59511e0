package node

import (
	"testing"
	"time"

	"mobistreams/internal/graph"
)

// TestQoSZeroIsLegacyBatching pins the zero-QoS batching defaults — 32
// messages, 64 KiB, a fixed 20 ms flush deadline with no adaptation, a
// 1 ms adaptive floor — the bounds the retired BatchConfig defaulted to.
func TestQoSZeroIsLegacyBatching(t *testing.T) {
	if batchMaxBytes != 64<<10 || minFlushDeadline != time.Millisecond {
		t.Fatalf("byte bound %d, adaptive floor %v", batchMaxBytes, minFlushDeadline)
	}
	b := newBatcher(nil, QoS{})
	if b.maxMsgs != 32 || b.disabled {
		t.Fatalf("zero QoS: maxMsgs %d, disabled %v", b.maxMsgs, b.disabled)
	}
	if got := b.flushInterval(); got != 20*time.Millisecond {
		t.Fatalf("flushInterval = %v, want 20ms", got)
	}
	b.noteSizeFlush()
	b.noteLatencyFlush(0)
	if got := b.flushInterval(); got != 20*time.Millisecond {
		t.Fatalf("flushInterval moved to %v without a latency budget", got)
	}
}

// TestQoSMergeOverridesLegacyBounds checks the two bounds QoS can still
// override over the defaults, and that neither touches the flush interval.
func TestQoSMergeOverridesLegacyBounds(t *testing.T) {
	b := newBatcher(nil, QoS{MaxBatchMsgs: 8, DisableBatching: true})
	if b.maxMsgs != 8 || !b.disabled {
		t.Fatalf("overrides ignored: maxMsgs %d, disabled %v", b.maxMsgs, b.disabled)
	}
	if got := b.flushInterval(); got != 20*time.Millisecond {
		t.Fatalf("overrides touched flushInterval: %v", got)
	}
}

func TestAdaptiveDeadlineTracksFlushCauses(t *testing.T) {
	b := newBatcher(nil, QoS{})
	b.setBudget(100 * time.Millisecond)
	if got := b.flushInterval(); got != 100*time.Millisecond {
		t.Fatalf("initial deadline = %v, want the full budget share", got)
	}
	// Latency-triggered flushes carrying nearly-empty batches shrink the
	// deadline toward the floor.
	for i := 0; i < 100; i++ {
		b.noteLatencyFlush(1)
	}
	if got := b.flushInterval(); got != time.Millisecond {
		t.Fatalf("deadline after sustained empty flushes = %v, want the 1ms floor", got)
	}
	// A latency flush carrying at least half a batch is evidence the
	// deadline is about right: no movement.
	cur := b.flushInterval()
	b.noteLatencyFlush(16)
	if got := b.flushInterval(); got != cur {
		t.Fatalf("half-full latency flush moved deadline %v -> %v", cur, got)
	}
	// Size-triggered flushes grow it back toward the cap, never past it.
	for i := 0; i < 100; i++ {
		b.noteSizeFlush()
	}
	if got := b.flushInterval(); got != 100*time.Millisecond {
		t.Fatalf("deadline after sustained size flushes = %v, want the budget cap", got)
	}
}

func TestSlotHopsLongestPathToSink(t *testing.T) {
	var gb graph.Builder
	gb.AddOperator("A", "s1").AddOperator("B", "s2").AddOperator("C", "s3").AddOperator("D", "s4")
	gb.Connect("A", "B").Connect("B", "C").Connect("C", "D").Connect("A", "D")
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	for slot, want := range map[string]int{"s1": 3, "s2": 2, "s3": 1, "s4": 0} {
		if got := slotHops(g, slot); got != want {
			t.Fatalf("slotHops(%s) = %d, want %d", slot, got, want)
		}
	}
}
