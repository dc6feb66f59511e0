package broadcast

import (
	"testing"
	"time"

	"mobistreams/internal/checkpoint"
	"mobistreams/internal/clock"
	"mobistreams/internal/simnet"
	"mobistreams/internal/storage"
)

// scriptMedium delivers blocks according to a deterministic per-phase rule,
// reproducing the loss pattern of the paper's Fig. 6 walk-through.
type scriptMedium struct {
	receivers map[simnet.NodeID]*Receiver
	phase     int
	deliver   func(phase int, to simnet.NodeID, blockIdx int) bool
	tcpSends  []string
}

func (s *scriptMedium) BroadcastBatch(from simnet.NodeID, class simnet.Class, grams []simnet.Datagram) []int {
	s.phase++
	counts := make([]int, len(grams))
	for gi, g := range grams {
		bm := g.Payload.(BlockMsg)
		for id, r := range s.receivers {
			if s.deliver(s.phase, id, bm.Index) {
				r.OnBlock(bm)
				counts[gi]++
			}
		}
	}
	return counts
}

func (s *scriptMedium) Request(from, to simnet.NodeID, class simnet.Class, size int, payload interface{}) (chan simnet.Message, error) {
	q := payload.(QueryMsg)
	bm := s.receivers[to].Bitmap(q)
	ch := make(chan simnet.Message, 1)
	ch <- simnet.Message{From: to, To: from, Class: class, Size: BitmapWireBytes(q.Total), Payload: bm}
	return ch, nil
}

func (s *scriptMedium) Unicast(from, to simnet.NodeID, class simnet.Class, size int, payload interface{}) error {
	s.tcpSends = append(s.tcpSends, string(from)+"->"+string(to))
	if r, ok := s.receivers[to]; ok {
		r.OnFill(payload.(FillMsg))
	}
	return nil
}

// TestPaperWalkthrough reproduces Fig. 6 exactly: an 8 MB checkpoint (8192
// 1 KB blocks) to receivers A, B, C. Phase 1: A gets the first 3 messages,
// B all even messages, C all odd messages -> gain 8195 KB = cost 8195 KB,
// continue. Phase 2: A and B complete, C unchanged -> gain 12285 KB > cost
// 8195 KB, continue. Phase 3 (resend evens): C gets all but M2 -> gain
// 4095 KB < cost 4099 KB, stop UDP; TCP tree delivers M2.
func TestPaperWalkthrough(t *testing.T) {
	const totalBlocks = 8192
	blob := &checkpoint.Blob{Slot: "sender", Version: 1, Size: totalBlocks * 1024, Ops: map[string][]byte{}}
	stores := map[simnet.NodeID]*storage.Store{"A": storage.New(), "B": storage.New(), "C": storage.New()}
	med := &scriptMedium{receivers: map[simnet.NodeID]*Receiver{
		"A": NewReceiver(stores["A"]),
		"B": NewReceiver(stores["B"]),
		"C": NewReceiver(stores["C"]),
	}}
	// Message M(k) in the paper is block index k-1.
	med.deliver = func(phase int, to simnet.NodeID, b int) bool {
		switch phase {
		case 1:
			switch to {
			case "A":
				return b < 3
			case "B":
				return b%2 == 1 // M2, M4, ... (even messages)
			default:
				return b%2 == 0 // M1, M3, ... (odd messages)
			}
		case 2:
			return to == "A" || to == "B"
		default:
			return to != "C" || b != 1 // C misses M2 only
		}
	}

	st := Disseminate(med, clock.NewManual(), nil, "sender", []simnet.NodeID{"A", "B", "C"}, blob, Config{BlockSize: 1024})

	if st.UDPPhases != 3 {
		t.Fatalf("UDP phases = %d, want 3", st.UDPPhases)
	}
	wantUDP := int64((8192 + 8192 + 4096) * 1024)
	if st.UDPBytes != wantUDP {
		t.Fatalf("UDP bytes = %d, want %d", st.UDPBytes, wantUDP)
	}
	// 3 receivers x 3 phases x 1 KB bitmaps.
	if st.BitmapBytes != 9*1024 {
		t.Fatalf("bitmap bytes = %d, want %d", st.BitmapBytes, 9*1024)
	}
	// M2 travels sender->A (root, subtree needs it) and A->C.
	if st.TCPBytes != 2*1024 {
		t.Fatalf("TCP bytes = %d, want 2048", st.TCPBytes)
	}
	if len(st.Complete) != 3 || len(st.Unreachable) != 0 {
		t.Fatalf("complete=%v unreachable=%v", st.Complete, st.Unreachable)
	}
	for id, r := range med.receivers {
		if !r.Complete("sender", 1) {
			t.Fatalf("receiver %s incomplete", id)
		}
		if _, ok := stores[id].Blob(1, "sender"); !ok {
			t.Fatalf("receiver %s did not persist blob", id)
		}
	}
}

func TestDisseminateNoLossSinglePhase(t *testing.T) {
	blob := &checkpoint.Blob{Slot: "s", Version: 2, Size: 10 * 1024, Ops: map[string][]byte{}}
	stores := map[simnet.NodeID]*storage.Store{"A": storage.New(), "B": storage.New()}
	med := &scriptMedium{receivers: map[simnet.NodeID]*Receiver{
		"A": NewReceiver(stores["A"]), "B": NewReceiver(stores["B"]),
	}}
	med.deliver = func(int, simnet.NodeID, int) bool { return true }
	st := Disseminate(med, clock.NewManual(), nil, "s", []simnet.NodeID{"A", "B"}, blob, Config{BlockSize: 1024})
	if st.UDPPhases != 1 {
		t.Fatalf("phases = %d, want 1", st.UDPPhases)
	}
	if st.TCPBytes != 0 {
		t.Fatalf("TCP bytes = %d, want 0", st.TCPBytes)
	}
	if len(st.Complete) != 2 {
		t.Fatalf("complete = %v", st.Complete)
	}
}

func TestDisseminateTotalLossFallsBackToTCP(t *testing.T) {
	blob := &checkpoint.Blob{Slot: "s", Version: 3, Size: 4 * 1024, Ops: map[string][]byte{}}
	med := &scriptMedium{receivers: map[simnet.NodeID]*Receiver{
		"A": NewReceiver(storage.New()), "B": NewReceiver(storage.New()),
	}}
	med.deliver = func(int, simnet.NodeID, int) bool { return false }
	st := Disseminate(med, clock.NewManual(), nil, "s", []simnet.NodeID{"A", "B"}, blob, Config{BlockSize: 1024})
	// Phase 1: gain 0 < cost -> straight to TCP, which must complete both.
	if st.UDPPhases != 1 {
		t.Fatalf("phases = %d, want 1", st.UDPPhases)
	}
	if len(st.Complete) != 2 {
		t.Fatalf("complete = %v", st.Complete)
	}
	// Tree: sender->A carries all 4 blocks (A+B need them), A->B all 4.
	if st.TCPBytes != 8*1024 {
		t.Fatalf("TCP bytes = %d, want 8192", st.TCPBytes)
	}
}

func TestDisseminateNoPeers(t *testing.T) {
	blob := &checkpoint.Blob{Slot: "s", Version: 1, Size: 1024, Ops: map[string][]byte{}}
	med := &scriptMedium{receivers: map[simnet.NodeID]*Receiver{}}
	med.deliver = func(int, simnet.NodeID, int) bool { return true }
	st := Disseminate(med, clock.NewManual(), nil, "s", nil, blob, Config{})
	if st.UDPPhases != 0 || st.UDPBytes != 0 {
		t.Fatalf("stats = %+v, want empty", st)
	}
}

// TestDisseminateLive runs the protocol over the real simulated WiFi with
// 30% UDP loss and receiver goroutines behaving like node runtimes.
func TestDisseminateLive(t *testing.T) {
	clk := clock.NewScaled(5000)
	w := simnet.NewWiFi(clk, simnet.WiFiConfig{BitsPerSecond: 20e6, LossProb: 0.3, Seed: 7})
	sender := simnet.NewEndpoint("s", 1<<14)
	w.Join(sender)
	peers := []simnet.NodeID{"A", "B", "C"}
	stores := make(map[simnet.NodeID]*storage.Store)
	stop := make(chan struct{})
	defer close(stop)
	for _, id := range peers {
		ep := simnet.NewEndpoint(id, 1<<14)
		w.Join(ep)
		store := storage.New()
		stores[id] = store
		recv := NewReceiver(store)
		go func(id simnet.NodeID, ep *simnet.Endpoint) {
			for {
				select {
				case m := <-ep.Inbox():
					switch p := m.Payload.(type) {
					case BlockMsg:
						recv.OnBlock(p)
					case FillMsg:
						recv.OnFill(p)
					case QueryMsg:
						bm := recv.Bitmap(p)
						w.Respond(m, id, simnet.ClassBitmap, BitmapWireBytes(p.Total), bm)
					}
				case <-stop:
					return
				}
			}
		}(id, ep)
	}

	blob := &checkpoint.Blob{Slot: "s", Version: 9, Size: 64 * 1024, Ops: map[string][]byte{}}
	st := Disseminate(w, clk, nil, "s", peers, blob, Config{BlockSize: 1024, QueryTimeout: 60 * time.Second})
	if len(st.Complete) != 3 {
		t.Fatalf("complete = %v, unreachable = %v", st.Complete, st.Unreachable)
	}
	// TCP fills are delivered asynchronously through inboxes; poll until
	// the receiver goroutines have persisted the blob.
	deadline := time.Now().Add(2 * time.Second)
	for _, id := range peers {
		for {
			if _, ok := stores[id].Blob(9, "s"); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("peer %s missing blob", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if st.UDPBytes < 64*1024 {
		t.Fatalf("UDP bytes = %d, expected at least one full pass", st.UDPBytes)
	}
	// Broadcast amortisation: total network bytes should be far below
	// 3x unicast (one copy per peer).
	total := st.UDPBytes + st.TCPBytes + st.BitmapBytes
	if total >= 3*64*1024 {
		t.Fatalf("broadcast dissemination cost %d >= 3x unicast cost", total)
	}
}

func TestReceiverDuplicateAndBitmap(t *testing.T) {
	r := NewReceiver(storage.New())
	blob := &checkpoint.Blob{Slot: "n", Version: 1, Size: 3 * 1024, Ops: map[string][]byte{}}
	msg := BlockMsg{Slot: "n", Version: 1, Index: 0, Total: 3, Blob: blob}
	if r.OnBlock(msg) {
		t.Fatal("one of three blocks should not complete")
	}
	if r.OnBlock(msg) {
		t.Fatal("duplicate block should be a no-op")
	}
	if got := r.ReceivedBlocks("n", 1); got != 1 {
		t.Fatalf("received = %d, want 1", got)
	}
	bm := r.Bitmap(QueryMsg{Slot: "n", Version: 1, Total: 3})
	if !bm[0] || bm[1] || bm[2] {
		t.Fatalf("bitmap = %v", bm)
	}
	if r.OnBlock(BlockMsg{Slot: "n", Version: 1, Index: 1, Total: 3, Blob: blob}) {
		t.Fatal("two of three should not complete")
	}
	if !r.OnFill(FillMsg{Slot: "n", Version: 1, Total: 3, Indices: []int{2}, Blob: blob}) {
		t.Fatal("final fill should complete")
	}
	if !r.Complete("n", 1) {
		t.Fatal("not marked complete")
	}
}

func TestReceiverOutOfRangeIndex(t *testing.T) {
	r := NewReceiver(storage.New())
	blob := &checkpoint.Blob{Slot: "n", Version: 1, Size: 1024, Ops: map[string][]byte{}}
	if r.OnBlock(BlockMsg{Slot: "n", Version: 1, Index: 99, Total: 1, Blob: blob}) {
		t.Fatal("out-of-range index treated as progress")
	}
	if r.OnBlock(BlockMsg{Slot: "n", Version: 1, Index: -1, Total: 1, Blob: blob}) {
		t.Fatal("negative index treated as progress")
	}
}

func TestReceiverDropBefore(t *testing.T) {
	r := NewReceiver(storage.New())
	blob := &checkpoint.Blob{Slot: "n", Version: 1, Size: 2048, Ops: map[string][]byte{}}
	r.OnBlock(BlockMsg{Slot: "n", Version: 1, Index: 0, Total: 2, Blob: blob})
	r.DropBefore(2)
	if got := r.ReceivedBlocks("n", 1); got != 0 {
		t.Fatalf("received after drop = %d", got)
	}
}

func TestNumBlocksAndBlockBytes(t *testing.T) {
	if numBlocks(0, 1024) != 1 {
		t.Fatal("empty blob should ship one descriptor block")
	}
	if numBlocks(1024, 1024) != 1 || numBlocks(1025, 1024) != 2 {
		t.Fatal("numBlocks rounding wrong")
	}
	if blockBytes(1500, 1024, 0) != 1024 || blockBytes(1500, 1024, 1) != 476 {
		t.Fatal("blockBytes wrong")
	}
	if BitmapWireBytes(8192) != 1024 || BitmapWireBytes(1) != 1 {
		t.Fatal("bitmap wire size wrong")
	}
}

// silentMedium accepts every send and never answers a bitmap query; each
// query is announced on queried.
type silentMedium struct{ queried chan simnet.NodeID }

func (s *silentMedium) BroadcastBatch(simnet.NodeID, simnet.Class, []simnet.Datagram) []int {
	return nil
}

func (s *silentMedium) Request(_, to simnet.NodeID, _ simnet.Class, _ int, _ interface{}) (chan simnet.Message, error) {
	s.queried <- to
	return make(chan simnet.Message), nil
}

func (s *silentMedium) Unicast(simnet.NodeID, simnet.NodeID, simnet.Class, int, interface{}) error {
	return nil
}

// neverWaiter's timers never fire: a query to a silent peer waits forever.
type neverWaiter struct{}

func (neverWaiter) After(time.Duration) <-chan time.Duration { return nil }

// TestDisseminateReturnsWhenDone pins the stop path: a sender whose peers
// have stopped answering must not wait out a QueryTimeout per peer once it
// is told to stop. With timers that never fire, Disseminate returns only
// because done closed, and it reports no peer complete.
func TestDisseminateReturnsWhenDone(t *testing.T) {
	med := &silentMedium{queried: make(chan simnet.NodeID)}
	done := make(chan struct{})
	blob := &checkpoint.Blob{Slot: "s", Version: 1, Size: 4096, Ops: map[string][]byte{}}
	result := make(chan Stats)
	go func() {
		result <- Disseminate(med, neverWaiter{}, done, "s", []simnet.NodeID{"A", "B", "C"}, blob, Config{BlockSize: 1024})
	}()
	if peer := <-med.queried; peer != "A" {
		t.Fatalf("first bitmap query went to %s, want A", peer)
	}
	close(done)
	st := <-result
	if st.UDPPhases != 1 || len(st.Complete) != 0 || st.TCPBytes != 0 {
		t.Fatalf("stopped dissemination = %+v, want one UDP phase, nothing complete, no TCP fill", st)
	}
}
