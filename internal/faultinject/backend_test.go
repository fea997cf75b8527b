package faultinject

import (
	"errors"
	"testing"
	"time"

	"eswitch/internal/dpdk"
)

func TestBackendRxErrMarksQueueFatal(t *testing.T) {
	in := New(1)
	ring := dpdk.NewRingBackend(64, 2)
	fb := Backend(ring, in)

	if !fb.InjectOn(0, []byte{1, 2, 3, 4}) {
		t.Fatal("inject into healthy backend failed")
	}
	out := make([][]byte, 8)
	if n := fb.RxBurst(0, out); n != 1 {
		t.Fatalf("healthy RxBurst = %d, want 1", n)
	}

	boom := errors.New("simulated rx fault")
	in.Set("backend.rx", Rule{Err: boom, Count: 1})
	fb.InjectOn(0, []byte{1, 2, 3, 4})
	if n := fb.RxBurst(0, out); n != 0 {
		t.Fatalf("faulted RxBurst = %d, want 0", n)
	}
	if err := fb.QueueError(0); !errors.Is(err, boom) {
		t.Fatalf("QueueError(0) = %v, want %v", err, boom)
	}
	if err := fb.QueueError(1); err != nil {
		t.Fatalf("QueueError(1) = %v, want nil (fault is per queue)", err)
	}

	// Reopen clears the recorded error; the queue is healthy again.
	if err := fb.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if err := fb.QueueError(0); err != nil {
		t.Fatalf("QueueError(0) after Reopen = %v, want nil", err)
	}
	if n := fb.RxBurst(0, out); n != 1 {
		t.Fatalf("RxBurst after Reopen = %d, want the frame injected pre-fault", n)
	}
}

func TestBackendTxFaults(t *testing.T) {
	in := New(1)
	ring := dpdk.NewRingBackend(64, 1)
	fb := Backend(ring, in)
	frames := [][]byte{{1}, {2}}

	boom := errors.New("simulated tx fault")
	in.Set("backend.tx", Rule{Err: boom, Count: 1})
	if n := fb.TxBurst(0, frames); n != 0 {
		t.Fatalf("faulted TxBurst = %d, want 0", n)
	}
	if err := fb.QueueError(0); !errors.Is(err, boom) {
		t.Fatalf("QueueError = %v, want %v", err, boom)
	}

	in.Set("backend.tx", Rule{Drop: true, Count: 1})
	if n := fb.TxBurst(0, frames); n != len(frames) {
		t.Fatalf("dropped TxBurst = %d, want %d (black hole claims success)", n, len(frames))
	}
	if got := fb.DrainTx(); got != 0 {
		t.Fatalf("DrainTx after black-holed TX = %d, want 0", got)
	}

	in.Clear("backend.tx")
	if n := fb.TxBurst(0, frames); n != len(frames) {
		t.Fatalf("healthy TxBurst = %d, want %d", n, len(frames))
	}
}

func TestBackendStallDelays(t *testing.T) {
	in := New(1)
	fb := Backend(dpdk.NewRingBackend(64, 1), in)
	in.Set("backend.rx", Rule{Delay: 30 * time.Millisecond, Count: 1})
	start := time.Now()
	fb.RxBurst(0, make([][]byte, 4))
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("stall rule slept %v, want >= 30ms", d)
	}
}

func TestBackendKillReviveReopen(t *testing.T) {
	in := New(1)
	ring := dpdk.NewRingBackend(64, 1)
	fb := Backend(ring, in)

	fb.Kill(nil)
	if !fb.Killed() {
		t.Fatal("Killed() = false after Kill")
	}
	if err := fb.QueueError(0); !errors.Is(err, errKilled) {
		t.Fatalf("QueueError while killed = %v, want errKilled", err)
	}
	if fb.InjectOn(0, []byte{1}) {
		t.Fatal("InjectOn succeeded on a killed backend")
	}
	if fb.TransmitSlow([]byte{1}) {
		t.Fatal("TransmitSlow succeeded on a killed backend")
	}
	if n := fb.RxBurst(0, make([][]byte, 4)); n != 0 {
		t.Fatalf("RxBurst on killed backend = %d, want 0", n)
	}
	if err := fb.Reopen(); !errors.Is(err, errKilled) {
		t.Fatalf("Reopen while killed = %v, want errKilled", err)
	}

	fb.Revive()
	if fb.Killed() {
		t.Fatal("Killed() = true after Revive")
	}
	// Revive alone does not clear the fatal view — Reopen does.
	if err := fb.Reopen(); err != nil {
		t.Fatalf("Reopen after Revive: %v", err)
	}
	if err := fb.QueueError(0); err != nil {
		t.Fatalf("QueueError after recovery = %v, want nil", err)
	}
	if !fb.InjectOn(0, []byte{9}) {
		t.Fatal("InjectOn failed after recovery")
	}
	if n := fb.RxBurst(0, make([][]byte, 4)); n != 1 {
		t.Fatalf("RxBurst after recovery = %d, want 1", n)
	}
}

func TestBackendKillCustomError(t *testing.T) {
	boom := errors.New("cable pulled")
	fb := Backend(dpdk.NewRingBackend(64, 1), New(1))
	fb.Kill(boom)
	if err := fb.QueueError(0); !errors.Is(err, boom) {
		t.Fatalf("QueueError = %v, want %v", err, boom)
	}
}

// The wrapper must satisfy the full backend contract plus the extensions the
// chaos harness relies on.
var (
	_ dpdk.PortBackend         = (*FaultBackend)(nil)
	_ dpdk.ReopenableBackend   = (*FaultBackend)(nil)
	_ dpdk.InjectableBackend   = (*FaultBackend)(nil)
	_ dpdk.SlowPathTransmitter = (*FaultBackend)(nil)
)
