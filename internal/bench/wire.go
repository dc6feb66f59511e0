package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"mobistreams/internal/tuple"
	"mobistreams/internal/wire"
)

// WireRow is one wire-codec measurement: an encode or decode operation
// with its per-frame allocation count, latency and frame size.
type WireRow struct {
	Op          string  `json:"op"` // "encode_stream", "decode_stream", ...
	AllocsPerOp float64 `json:"allocs_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
	FrameBytes  int     `json:"frame_bytes"`
}

// benchStream is the data-plane message the codec benchmark drives: a
// realistic mid-pipeline tuple, the hot frame on every edge.
func benchStream() *wire.Stream {
	return &wire.Stream{
		FromSlot: "s1", FromOp: "win8", ToSlot: "s2", ToOp: "agg",
		EdgeSeq: 123456,
		Item: tuple.DataItem(&tuple.Tuple{
			Seq: 123456, Source: "src", Kind: "image",
			Created: 42 * time.Millisecond, Size: 4096, Value: 3.14159,
		}),
	}
}

func benchBatch(n int) *wire.Batch {
	b := &wire.Batch{ToSlot: "s2"}
	for i := 0; i < n; i++ {
		m := benchStream()
		m.EdgeSeq = uint64(i + 1)
		b.Msgs = append(b.Msgs, *m)
	}
	return b
}

// measure runs fn benchIters times under the Mallocs counter, after a short
// warmup, and returns allocs/op and ns/op — the same methodology as the
// emit-path gate.
func measure(fn func()) (allocsPerOp, nsPerOp float64) {
	for i := 0; i < 128; i++ {
		fn()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	start := time.Now()
	for i := 0; i < benchIters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs-m0) / benchIters,
		float64(elapsed.Nanoseconds()) / benchIters
}

// RunWire benchmarks the wire codec: encode paths into a reused presized
// buffer (must hold 0 allocs/op — that is the zero-alloc design claim the
// gate enforces) and decode paths as the contrast rows (decoding
// materialises tuples, so it allocates a small constant per frame).
func RunWire(w io.Writer) []WireRow {
	var rows []WireRow
	fmt.Fprintf(w, "\n=== Wire codec: encode (pinned 0 allocs) vs decode (%d frames) ===\n", benchIters)
	fmt.Fprintf(w, "%-16s %14s %12s %12s\n", "op", "allocs/op", "ns/op", "frame bytes")

	add := func(op string, frameBytes int, fn func()) {
		allocs, ns := measure(fn)
		rows = append(rows, WireRow{Op: op, AllocsPerOp: allocs, NsPerOp: ns, FrameBytes: frameBytes})
		fmt.Fprintf(w, "%-16s %14.3f %12.1f %12d\n", op, allocs, ns, frameBytes)
	}

	sm := benchStream()
	ssz, err := wire.SizeStream(sm)
	if err != nil {
		panic(err)
	}
	sbuf := make([]byte, 0, ssz)
	add("encode_stream", ssz, func() {
		if _, err := wire.AppendStream(sbuf[:0], sm); err != nil {
			panic(err)
		}
	})

	bm := benchBatch(16)
	bsz, err := wire.SizeBatch(bm)
	if err != nil {
		panic(err)
	}
	bbuf := make([]byte, 0, bsz)
	add("encode_batch16", bsz, func() {
		if _, err := wire.AppendBatch(bbuf[:0], bm); err != nil {
			panic(err)
		}
	})

	sframe, err := wire.AppendStream(make([]byte, 0, ssz), sm)
	if err != nil {
		panic(err)
	}
	add("decode_stream", len(sframe), func() {
		if _, err := wire.DecodeStream(sframe); err != nil {
			panic(err)
		}
	})

	bframe, err := wire.AppendBatch(make([]byte, 0, bsz), bm)
	if err != nil {
		panic(err)
	}
	add("decode_batch16", len(bframe), func() {
		if _, err := wire.DecodeBatch(bframe); err != nil {
			panic(err)
		}
	})

	return rows
}

// WireMetrics reduces the rows to the gate's metric: the worst encode row
// across frame kinds. Any per-frame allocation on the encode path breaks
// the zero-alloc wire-format claim; decode rows are contrast only.
func WireMetrics(rows []WireRow) Metrics {
	m := Metrics{}
	for _, r := range rows {
		if strings.HasPrefix(r.Op, "encode_") {
			m.keepMax("wire_encode_allocs_per_op", r.AllocsPerOp, "count")
		}
	}
	return m
}
