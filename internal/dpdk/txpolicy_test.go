package dpdk

import (
	"fmt"
	"testing"
	"time"
)

func TestParseTxPolicy(t *testing.T) {
	for name, want := range map[string]TxPolicy{"drop": TxDrop, "block": TxBlock, "spill": TxSpill} {
		got, err := ParseTxPolicy(name)
		if err != nil || got != want {
			t.Fatalf("ParseTxPolicy(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Fatalf("TxPolicy(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParseTxPolicy("bogus"); err == nil {
		t.Fatal("bogus policy must not parse")
	}
}

// fillTxViaPoll injects seq-numbered frames into port 1 and polls them
// through ws, returning how many were injected.  Frames carry their sequence
// number in the first two bytes so order can be asserted on the TX side.
func fillTxViaPoll(t *testing.T, sw *Switch, ws *workerState, p1 *Port, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if !p1.InjectOn(AutoQueue, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("inject %d failed (RX ring full)", i)
		}
	}
	sw.pollPorts(ws, nil)
}

// TestTxPolicyDrop asserts the NIC-like default: overflow frames are dropped
// immediately, with no retries.
func TestTxPolicyDrop(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 8, Queues: 1}) // TX capacity 7
	ws := sw.newWorkerState(allQueues(1), 0)
	p1, _ := sw.Port(1)
	p2, _ := sw.Port(2)

	fillTxViaPoll(t, sw, ws, p1, 0, 7) // exactly fills the TX ring
	fillTxViaPoll(t, sw, ws, p1, 7, 7) // entirely overflow
	st := sw.Stats()
	if st.TxDrops != 7 || st.TxRetries != 0 {
		t.Fatalf("drop policy stats: %+v, want 7 drops, 0 retries", st)
	}
	if ps := p2.Stats(); ps.TxDrops != 7 || ps.TxPackets != 7 {
		t.Fatalf("port stats: %+v", ps)
	}
	// The frames that made it are the first 7, in receive order.
	for i := 0; i < 7; i++ {
		f, ok := p2.be.(*RingBackend).TxDequeue(0)
		if !ok || f[0] != byte(i) {
			t.Fatalf("tx slot %d: got %v ok=%v", i, f, ok)
		}
	}
}

// TestTxPolicyBlockGivesUpAfterBoundedRetries asserts the documented retry
// accounting with no consumer: every remaining frame is re-attempted once
// per round for txRetryLimit rounds, then dropped.
func TestTxPolicyBlockGivesUpAfterBoundedRetries(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 8, Queues: 1})
	sw.SetTxPolicy(TxBlock)
	ws := sw.newWorkerState(allQueues(1), 0)
	p1, _ := sw.Port(1)

	fillTxViaPoll(t, sw, ws, p1, 0, 7)
	fillTxViaPoll(t, sw, ws, p1, 7, 3) // 3 frames cannot fit, nobody drains
	st := sw.Stats()
	if st.TxDrops != 3 {
		t.Fatalf("block policy drops: %+v, want 3", st)
	}
	if want := uint64(3 * txRetryLimit); st.TxRetries != want {
		t.Fatalf("block policy retries: %d, want %d (3 frames × %d rounds)", st.TxRetries, want, txRetryLimit)
	}
}

// TestTxPolicyBlockDeliversUnderDrain asserts that with a live consumer the
// block policy delivers every frame in receive order and counts zero drops.
func TestTxPolicyBlockDeliversUnderDrain(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 8, Queues: 1})
	sw.SetTxPolicy(TxBlock)
	ws := sw.newWorkerState(allQueues(1), 0)
	p1, _ := sw.Port(1)
	p2, _ := sw.Port(2)

	const n = 200
	got := make(chan []byte, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for received := 0; received < n; {
			f, ok := p2.be.(*RingBackend).TxDequeue(0)
			if !ok {
				time.Sleep(10 * time.Microsecond)
				continue
			}
			got <- f
			received++
		}
	}()
	for base := 0; base < n; base += 5 {
		fillTxViaPoll(t, sw, ws, p1, base, 5)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("consumer timed out")
	}
	close(got)
	i := 0
	for f := range got {
		if f[0] != byte(i) || f[1] != byte(i>>8) {
			t.Fatalf("receive order broken at %d: got %d", i, int(f[0])|int(f[1])<<8)
		}
		i++
	}
	if st := sw.Stats(); st.TxDrops != 0 {
		t.Fatalf("block policy dropped %d frames despite a live consumer", st.TxDrops)
	}
}

// TestTxPolicySpillPreservesOrderAcrossRetries asserts the spill policy
// parks overflow in the worker's backlog, re-attempts it ahead of newly
// staged frames on later polls, counts the documented retries, and keeps the
// whole TX stream in receive order.
func TestTxPolicySpillPreservesOrderAcrossRetries(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 8, Queues: 1}) // TX capacity 7
	sw.SetTxPolicy(TxSpill)
	ws := sw.newWorkerState(allQueues(1), 0)
	p1, _ := sw.Port(1)
	p2, _ := sw.Port(2)

	fillTxViaPoll(t, sw, ws, p1, 0, 7) // fills the TX ring
	fillTxViaPoll(t, sw, ws, p1, 7, 7) // all 7 spill
	if st := sw.Stats(); st.TxDrops != 0 || st.TxRetries != 0 {
		t.Fatalf("first overflow is not a retry and must not drop: %+v", st)
	}
	if ws.spillPending != 7 {
		t.Fatalf("spill backlog %d, want 7", ws.spillPending)
	}

	// Drain 3 slots and poll with no new traffic: 3 spilled frames move,
	// all 7 count one retry each.
	for i := 0; i < 3; i++ {
		if f, ok := p2.be.(*RingBackend).TxDequeue(0); !ok || f[0] != byte(i) {
			t.Fatalf("drain %d: got %v ok=%v", i, f, ok)
		}
	}
	sw.pollPorts(ws, nil)
	if st := sw.Stats(); st.TxRetries != 7 || st.TxDrops != 0 {
		t.Fatalf("after partial re-attempt: %+v, want 7 retries", st)
	}
	if ws.spillPending != 4 {
		t.Fatalf("spill backlog %d, want 4", ws.spillPending)
	}

	// Drain what is in the ring — frames 3..9, still in receive order —
	// then poll again: the last 4 spilled frames flush (4 more retries).
	for i := 3; i <= 9; i++ {
		f, ok := p2.be.(*RingBackend).TxDequeue(0)
		if !ok || f[0] != byte(i) {
			t.Fatalf("drain %d: got %v ok=%v", i, f, ok)
		}
	}
	sw.pollPorts(ws, nil)
	if ws.spillPending != 0 {
		t.Fatalf("spill backlog %d after full drain, want 0", ws.spillPending)
	}
	if st := sw.Stats(); st.TxRetries != 11 || st.TxDrops != 0 {
		t.Fatalf("final stats: %+v, want 11 retries, 0 drops", st)
	}
	// The last 4 frames (10..13) must come out in receive order.
	for i := 10; i < 14; i++ {
		f, ok := p2.be.(*RingBackend).TxDequeue(0)
		if !ok || f[0] != byte(i) {
			t.Fatalf("tx order broken at %d: got %v ok=%v", i, f, ok)
		}
	}
}

// TestTxPolicySpillBacklogBounded asserts the spill backlog caps at spillCap
// frames per port and overflow beyond it is dropped.
func TestTxPolicySpillBacklogBounded(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 8, Queues: 1}) // TX capacity 7
	sw.SetTxPolicy(TxSpill)
	ws := sw.newWorkerState(allQueues(1), 0)
	p1, _ := sw.Port(1)

	const rounds = 150 // 150×7 = 1050 frames: 7 in the ring, spillCap parked, 19 dropped
	for r := 0; r < rounds; r++ {
		fillTxViaPoll(t, sw, ws, p1, r*7, 7)
	}
	total := rounds * 7
	wantDrops := uint64(total - 7 - spillCap)
	st := sw.Stats()
	if st.TxDrops != wantDrops {
		t.Fatalf("bounded spill drops: %d, want %d", st.TxDrops, wantDrops)
	}
	if ws.spillPending != spillCap {
		t.Fatalf("spill backlog %d, want %d", ws.spillPending, spillCap)
	}
}

// TestRunWorkersAbandonSpillOnStop asserts a stopping worker accounts its
// undeliverable backlog as drops, so Stats stays truthful after stop().
func TestRunWorkersAbandonSpillOnStop(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 8, Queues: 1})
	sw.SetTxPolicy(TxSpill)
	p1, _ := sw.Port(1)
	stop := sw.RunWorkers(1)
	const n = 14 // 7 fill the TX ring, 7 spill
	injected := 0
	for i := 0; injected < n && i < 10*n; i++ {
		if p1.InjectOn(AutoQueue, []byte{byte(injected)}) {
			injected++
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for sw.Stats().Processed < uint64(injected) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	st := sw.Stats()
	if st.Processed != uint64(injected) {
		t.Fatalf("processed %d of %d", st.Processed, injected)
	}
	// Nothing ever drained port 2: 7 frames sit in its TX ring, the other 7
	// were spilled and must have been accounted as drops on shutdown.
	if got := st.TxDrops + 7; got != uint64(injected) {
		t.Fatalf("stats after stop: %+v — %d transmitted + %d dropped ≠ %d injected",
			st, 7, st.TxDrops, injected)
	}
}

func TestWorkerStatsStringsAndFold(t *testing.T) {
	// Sanity: the TX counters surface through the folded WorkerStats.
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 8, Queues: 1})
	ws := sw.newWorkerState(allQueues(1), 0)
	p1, _ := sw.Port(1)
	fillTxViaPoll(t, sw, ws, p1, 0, 7)
	fillTxViaPoll(t, sw, ws, p1, 7, 2)
	sw.retireCounters(ws.counters)
	st := sw.Stats()
	if st.TxDrops != 2 {
		t.Fatalf("retired TX drops not folded: %+v", st)
	}
	if s := fmt.Sprintf("%+v", st); s == "" {
		t.Fatal("unprintable stats")
	}
}

// TestPollOnceRunsToCompletion asserts PollOnce cannot strand frames in its
// worker's spill backlog — its caller may never poll again: any backlog left
// after the poll is final-attempted and the remainder accounted as drops.
func TestPollOnceRunsToCompletion(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 8, Queues: 1}) // TX capacity 7
	sw.SetTxPolicy(TxSpill)
	p1, _ := sw.Port(1)
	for i := 0; i < 7; i++ {
		if !p1.InjectOn(AutoQueue, []byte{byte(i)}) {
			t.Fatalf("inject %d", i)
		}
	}
	sw.PollOnce(nil) // fills the TX ring exactly
	for i := 7; i < 14; i++ {
		if !p1.InjectOn(AutoQueue, []byte{byte(i)}) {
			t.Fatalf("inject %d", i)
		}
	}
	sw.PollOnce(nil) // 7 frames overflow; the worker must not keep them
	st := sw.Stats()
	if st.TxDrops != 7 {
		t.Fatalf("spill backlog not accounted: %+v, want 7 TxDrops", st)
	}
	if st.TxRetries == 0 {
		t.Fatalf("final attempt should count retries: %+v", st)
	}
}
