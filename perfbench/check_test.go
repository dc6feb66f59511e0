package main

import (
	"fmt"
	"testing"
	"time"

	bcpapp "mobistreams/internal/apps/bcp"
)

// collect returns a bad func for tally and the problems it reports.
func collect() (func(string, ...interface{}), *[]string) {
	var problems []string
	return func(format string, a ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, a...))
	}, &problems
}

// treeRun is two tree streams of three tuples each, all due inside the
// window [0, 10s), and their outputs, each published once.
func treeRun() ([]stream, [][]time.Duration, []output) {
	streams := []stream{{src: "S1"}, {src: "S2"}}
	dues := [][]time.Duration{
		{time.Second, 2 * time.Second, 3 * time.Second},
		{time.Second, 2 * time.Second, 3 * time.Second},
	}
	var outs []output
	for i, st := range streams {
		for k, due := range dues[i] {
			outs = append(outs, output{src: st.src, seq: uint64(k + 1), at: due + time.Second, val: token{i, k}})
		}
	}
	return streams, dues, outs
}

func TestTallyTreeExactlyOnce(t *testing.T) {
	streams, dues, outs := treeRun()
	bad, problems := collect()
	attempted, failed, inWindow, lats := tally(true, streams, dues, outs, 0, 10*time.Second, bad)
	if attempted != 6 || failed != 0 || len(*problems) != 0 {
		t.Fatalf("attempted=%d failed=%d problems=%v, want 6, 0, none", attempted, failed, *problems)
	}
	if len(inWindow) != 6 || len(lats) != 6 || lats[0].ms != 1000 {
		t.Fatalf("inWindow=%d lats=%v, want 6 outputs at 1000 ms", len(inWindow), lats)
	}
}

// A duplicate that reaches the sink under another (source, seq) gets past
// the region's dedup; tally must still count it, by its payload.
func TestTallyTreeCatchesResequencedDuplicate(t *testing.T) {
	streams, dues, outs := treeRun()
	// S1's fourth tuple is due after the window; its (source, seq) is
	// free, as the region's dedup needs it to be.
	dues[0] = append(dues[0], 11*time.Second)
	outs = append(outs, output{src: "S1", seq: 4, at: 5 * time.Second, val: token{0, 1}})
	bad, problems := collect()
	attempted, failed, _, _ := tally(true, streams, dues, outs, 0, 10*time.Second, bad)
	if attempted != 6 || failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 6, 1", attempted, failed)
	}
	if len(*problems) != 1 {
		t.Fatalf("problems=%v, want the mismatched payload reported", *problems)
	}
}

func TestTallyTreeCountsMissing(t *testing.T) {
	streams, dues, outs := treeRun()
	bad, problems := collect()
	attempted, failed, _, _ := tally(true, streams, dues, outs[1:], 0, 10*time.Second, bad)
	if attempted != 6 || failed != 1 || len(*problems) != 0 {
		t.Fatalf("attempted=%d failed=%d problems=%v, want 6, 1, none", attempted, failed, *problems)
	}
}

// bcpRun is two frames (S1) and one bus reading (S0), each with one
// prediction at the sink.
func bcpRun() ([]stream, [][]time.Duration, []output) {
	streams := []stream{{src: "S1"}, {src: "S0"}}
	dues := [][]time.Duration{{time.Second, 4 * time.Second}, {2 * time.Second}}
	outs := []output{
		{src: "S1", seq: 1, created: time.Second, at: 9 * time.Second, val: bcpapp.Prediction{BusSeq: 1, OnBoard: 12}},
		{src: "S0", seq: 1, created: 2 * time.Second, at: 3 * time.Second, val: bcpapp.Prediction{BusSeq: 1, OnBoard: 11}},
		{src: "S1", seq: 2, created: 4 * time.Second, at: 12 * time.Second, val: bcpapp.Prediction{BusSeq: 1, OnBoard: 13}},
	}
	return streams, dues, outs
}

func TestTallyBCPClean(t *testing.T) {
	streams, dues, outs := bcpRun()
	bad, problems := collect()
	attempted, failed, _, _ := tally(false, streams, dues, outs, 0, 20*time.Second, bad)
	if attempted != 3 || failed != 0 || len(*problems) != 0 {
		t.Fatalf("attempted=%d failed=%d problems=%v, want 3, 0, none", attempted, failed, *problems)
	}
}

// A replayed frame published under a new seq passes the region's
// (source, seq) dedup but carries its first ingest time.
func TestTallyBCPCatchesResequencedDuplicate(t *testing.T) {
	streams, dues, outs := bcpRun()
	dues[0] = append(dues[0], 7*time.Second)
	outs = append(outs, output{src: "S1", seq: 3, created: time.Second, at: 15 * time.Second, val: bcpapp.Prediction{BusSeq: 1, OnBoard: 12}})
	bad, problems := collect()
	attempted, failed, _, _ := tally(false, streams, dues, outs, 0, 20*time.Second, bad)
	if attempted != 3 || failed != 1 || len(*problems) != 0 {
		t.Fatalf("attempted=%d failed=%d problems=%v, want 3, 1, none", attempted, failed, *problems)
	}
}

func TestTallyBCPReportsCorruptReading(t *testing.T) {
	streams, dues, outs := bcpRun()
	for k := 2; k <= 10; k++ {
		dues[1] = append(dues[1], time.Duration(k)*30*time.Second)
	}
	outs = append(outs, output{src: "S0", seq: 10, created: 300 * time.Second, at: 301 * time.Second, val: bcpapp.Prediction{BusSeq: 10, OnBoard: 9}})
	bad, problems := collect()
	tally(false, streams, dues, outs, 0, 400*time.Second, bad)
	if len(*problems) != 1 {
		t.Fatalf("problems=%v, want the corrupt reading reported", *problems)
	}
}
