package dpdk

import (
	"fmt"
	"testing"
	"time"
)

// fillTxViaPoll injects seq-numbered frames into port 1 and polls them
// through ws.  Frames carry their sequence
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

// expectTxOrder dequeues port's TX ring and requires exactly the frames
// 0..n-1, in receive order.
func expectTxOrder(t *testing.T, port *Port, n int) {
	t.Helper()
	ring := port.be.(*RingBackend)
	for i := 0; i < n; i++ {
		f, ok := ring.TxDequeue(0)
		if !ok || f[0] != byte(i) {
			t.Fatalf("tx slot %d: got %v ok=%v", i, f, ok)
		}
	}
	if f, ok := ring.TxDequeue(0); ok {
		t.Fatalf("tx ring holds more than %d frames: %v", n, f)
	}
}

// TestFullTxRingDrops asserts what a full TX ring does: the frames it did
// not take are dropped immediately, counted per worker and per port, as a
// NIC's descriptor ring drops.
func TestFullTxRingDrops(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 8, Queues: 1}) // TX capacity 7
	ws := sw.newWorkerState(allQueues(1), 0)
	p1, _ := sw.Port(1)
	p2, _ := sw.Port(2)

	fillTxViaPoll(t, sw, ws, p1, 0, 7) // exactly fills the TX ring
	fillTxViaPoll(t, sw, ws, p1, 7, 7) // entirely overflow
	if st := sw.Stats(); st.TxDrops != 7 {
		t.Fatalf("full-ring stats: %+v, want 7 drops", st)
	}
	if ps := p2.Stats(); ps.TxDrops != 7 || ps.TxPackets != 7 {
		t.Fatalf("port stats: %+v", ps)
	}
	// The frames that made it are the first 7, in receive order.
	expectTxOrder(t, p2, 7)
}

// TestRunWorkersFullTxRingDrops drives the same full ring through a
// RunWorkers worker: 14 frames into a 7-slot TX ring nobody drains.  The
// first seven are sent in receive order, the other seven are dropped, and
// the counters agree once stop() returns.
func TestRunWorkersFullTxRingDrops(t *testing.T) {
	sw := NewSwitchWithConfig(DatapathFunc(echoDatapath), SwitchConfig{NumPorts: 2, RingSize: 8, Queues: 1}) // TX capacity 7
	p1, _ := sw.Port(1)
	p2, _ := sw.Port(2)
	stop := sw.RunWorkers(1)
	const n = 14
	deadline := time.Now().Add(10 * time.Second)
	for injected := 0; injected < n; {
		if p1.InjectOn(AutoQueue, []byte{byte(injected)}) {
			injected++
		} else if time.Now().After(deadline) {
			stop()
			t.Fatalf("injected %d of %d before the deadline", injected, n)
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for sw.Stats().Processed < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	st := sw.Stats()
	if st.Processed != n || st.TxDrops != 7 {
		t.Fatalf("worker stats after stop: %+v, want %d processed, 7 TX drops", st, n)
	}
	if ps := p2.Stats(); ps.TxPackets != 7 || ps.TxDrops != 7 {
		t.Fatalf("port 2 stats: %+v, want 7 sent, 7 dropped", ps)
	}
	expectTxOrder(t, p2, 7)
	if err := st.CheckInvariants(false); err != nil {
		t.Fatal(err)
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
