package dpdk

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eswitch/internal/pcap"
	"eswitch/internal/pkt"
)

// This file is the shared backend-conformance suite: every PortBackend —
// simulated rings, pcap replay, AF_PACKET over a veth pair (see the
// linux-only harness file), and the null sink — runs through the same
// contract checks, so a new backend cannot silently diverge on burst
// ordering, partial-TX accounting, stats invariants or Close idempotency.

// conformFrameCount is the size of the standard injected frame set.
const conformFrameCount = 12

// conformanceHarness adapts one backend to the suite.
type conformanceHarness struct {
	name string
	// make builds a fresh backend.  inject delivers the standard
	// conformFrameCount distinct frames into the backend's RX side (through
	// whatever path reaches it — ring injection, trace preload, a peer
	// socket) and returns them in expected per-queue delivery order, indexed
	// by queue.  A nil inject skips the RX checks (the null sink never
	// receives).
	make func(t *testing.T) (be PortBackend, inject func(t *testing.T) [][][]byte, cleanup func())
	// exactRx means RX delivers exactly the injected frames (no outside
	// noise); kernel-backed backends see stray traffic and only guarantee
	// the injected frames arrive as an ordered subsequence.
	exactRx bool
	// rxRepeatable means inject may be called more than once per backend
	// instance (false for trace replay, whose frame set is fixed at open).
	rxRepeatable bool
	// txCapacity, when > 0, is a TX-queue size the suite can overflow to
	// check partial-accept accounting (0 = effectively unbounded TX).
	txCapacity int
}

// conformanceFrame builds the i-th distinct test frame (minimum Ethernet
// size so real interfaces carry it unchanged).
func conformanceFrame(i int) []byte {
	f := make([]byte, 60)
	// Locally administered unicast MACs plus a magic prefix, so kernel
	// noise on a real interface can never collide with an injected frame.
	copy(f, []byte{0x02, 0xe5, 0x17, 0xc4, 0x0f, byte(i), 0x02, 0xe5, 0x17, 0xc4, 0xf0, byte(i >> 8)})
	f[12], f[13] = 0x88, 0xb5 // IEEE 802.1 local experimental ethertype
	f[14] = byte(i)
	f[15] = byte(i >> 8)
	return f
}

// conformanceTrace is the standard frame set as capture records, and
// conformanceDemux the per-queue expectation under the production RSS demux.
func conformanceTrace() []pcap.Packet {
	records := make([]pcap.Packet, conformFrameCount)
	for i := range records {
		records[i] = pcap.Packet{Ts: time.Unix(1, int64(i)*1000), Data: conformanceFrame(i)}
	}
	return records
}

func conformanceDemux(queues int) [][][]byte {
	perQueue := make([][][]byte, queues)
	for i := 0; i < conformFrameCount; i++ {
		f := conformanceFrame(i)
		q := 0
		if queues > 1 {
			q = int(pkt.RSSHash(f) % uint32(queues))
		}
		perQueue[q] = append(perQueue[q], f)
	}
	return perQueue
}

// platformHarnesses is extended by build-tagged files (the AF_PACKET/veth
// harness on Linux).
var platformHarnesses []func() conformanceHarness

func conformanceHarnesses() []conformanceHarness {
	hs := []conformanceHarness{
		{
			name:         "ring",
			exactRx:      true,
			rxRepeatable: true,
			txCapacity:   7, // NewRing(8) keeps one slot open
			make: func(t *testing.T) (PortBackend, func(*testing.T) [][][]byte, func()) {
				be := NewRingBackend(8, 2)
				inject := func(t *testing.T) [][][]byte {
					perQueue := make([][][]byte, be.Queues())
					for i := 0; i < conformFrameCount; i++ {
						f := conformanceFrame(i)
						q := i % be.Queues()
						if !be.InjectOn(q, f) {
							t.Fatalf("ring inject %d on queue %d failed", i, q)
						}
						perQueue[q] = append(perQueue[q], f)
					}
					return perQueue
				}
				return be, inject, func() {}
			},
		},
		{
			name:    "pcap",
			exactRx: true,
			// The trace is the injection: the frame set is fixed at open, so
			// inject is a one-shot that just returns the expectation.
			make: func(t *testing.T) (PortBackend, func(*testing.T) [][][]byte, func()) {
				be, err := newPcapBackend(conformanceTrace(), PcapConfig{Queues: 2})
				if err != nil {
					t.Fatalf("pcap backend: %v", err)
				}
				inject := func(t *testing.T) [][][]byte {
					return conformanceDemux(be.Queues())
				}
				return be, inject, func() {}
			},
		},
		{
			name: "null",
			make: func(t *testing.T) (PortBackend, func(*testing.T) [][][]byte, func()) {
				return NewNullBackend(2), nil, func() {}
			},
		},
	}
	for _, mk := range platformHarnesses {
		hs = append(hs, mk())
	}
	return hs
}

// TestBackendConformance runs every registered backend through the shared
// contract checks.
func TestBackendConformance(t *testing.T) {
	for _, h := range conformanceHarnesses() {
		t.Run(h.name, func(t *testing.T) {
			t.Run("queue-geometry", func(t *testing.T) { conformQueueGeometry(t, h) })
			t.Run("rx-burst-ordering", func(t *testing.T) { conformRxOrdering(t, h) })
			t.Run("tx-accounting", func(t *testing.T) { conformTxAccounting(t, h) })
			t.Run("partial-tx-accounting", func(t *testing.T) { conformPartialTx(t, h) })
			t.Run("stats-invariants", func(t *testing.T) { conformStats(t, h) })
			t.Run("queue-error", func(t *testing.T) { conformQueueError(t, h) })
			t.Run("close-idempotent", func(t *testing.T) { conformClose(t, h) })
			t.Run("close-races-workers", func(t *testing.T) { conformCloseRace(t, h) })
		})
	}
}

func conformQueueGeometry(t *testing.T, h conformanceHarness) {
	be, _, cleanup := h.make(t)
	defer cleanup()
	defer be.Close()
	if be.Queues() < 1 {
		t.Fatalf("Queues() = %d, want >= 1", be.Queues())
	}
	// A drained (or never-receiving) backend must return 0, not block.
	out := make([][]byte, 8)
	for q := 0; q < be.Queues(); q++ {
		drainRx(be, q) // preloaded traces and kernel noise both drain away
		if n := be.RxBurst(q, out); n != 0 && h.exactRx {
			// Kernel-backed backends may legitimately receive stray traffic
			// at any moment; for them the bounded drain above already proves
			// RxBurst never blocks.
			t.Fatalf("RxBurst on drained queue %d = %d, want 0", q, n)
		}
	}
}

func conformRxOrdering(t *testing.T, h conformanceHarness) {
	be, inject, cleanup := h.make(t)
	defer cleanup()
	defer be.Close()
	if inject == nil {
		t.Skip("backend has no RX injection path")
	}
	if !h.exactRx {
		// Kernel-backed backends: clear pre-existing noise first.
		for q := 0; q < be.Queues(); q++ {
			drainRx(be, q)
		}
	}
	want := inject(t)
	for q := 0; q < be.Queues(); q++ {
		got := collectRx(be, q, len(want[q]), h.exactRx)
		if h.exactRx {
			if len(got) != len(want[q]) {
				t.Fatalf("queue %d delivered %d frames, want %d", q, len(got), len(want[q]))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[q][i]) {
					t.Fatalf("queue %d frame %d out of order or corrupted", q, i)
				}
			}
			continue
		}
		// Noise-tolerant backends: the injected frames must appear as an
		// ordered subsequence of the delivered stream.
		next := 0
		for _, f := range got {
			if next < len(want[q]) && bytes.Equal(f, want[q][next]) {
				next++
			}
		}
		if next != len(want[q]) {
			t.Fatalf("queue %d: only %d/%d injected frames arrived in order", q, next, len(want[q]))
		}
	}
	if st := be.Stats(); st.RxPackets < conformFrameCount {
		t.Fatalf("RxPackets = %d after delivering %d frames", st.RxPackets, conformFrameCount)
	}
}

func conformTxAccounting(t *testing.T, h conformanceHarness) {
	be, _, cleanup := h.make(t)
	defer cleanup()
	defer be.Close()
	before := be.Stats()
	frames := [][]byte{conformanceFrame(100), conformanceFrame(101), conformanceFrame(102)}
	n := be.TxBurst(0, frames)
	if n != len(frames) {
		t.Fatalf("TxBurst accepted %d of %d on an empty queue", n, len(frames))
	}
	after := be.Stats()
	if got := after.TxPackets - before.TxPackets; got != uint64(n) {
		t.Fatalf("TxPackets advanced by %d, want %d (accepted frames only)", got, n)
	}
}

func conformPartialTx(t *testing.T, h conformanceHarness) {
	be, _, cleanup := h.make(t)
	defer cleanup()
	defer be.Close()
	if h.txCapacity <= 0 {
		t.Skip("backend TX cannot be overflowed deterministically")
	}
	over := make([][]byte, h.txCapacity+3)
	for i := range over {
		over[i] = conformanceFrame(200 + i)
	}
	before := be.Stats()
	n := be.TxBurst(0, over)
	if n != h.txCapacity {
		t.Fatalf("TxBurst accepted %d, want the %d-frame capacity prefix", n, h.txCapacity)
	}
	after := be.Stats()
	if got := after.TxPackets - before.TxPackets; got != uint64(n) {
		t.Fatalf("TxPackets advanced by %d, want %d", got, n)
	}
	if after.TxDrops != before.TxDrops {
		t.Fatalf("backend counted %d TX drops itself; overflow accounting belongs to the policy layer",
			after.TxDrops-before.TxDrops)
	}
}

func conformStats(t *testing.T, h conformanceHarness) {
	be, inject, cleanup := h.make(t)
	defer cleanup()
	defer be.Close()
	rounds := 1
	if h.rxRepeatable {
		rounds = 3
	}
	prev := be.Stats()
	for round := 0; round < rounds; round++ {
		if inject != nil {
			inject(t)
			for q := 0; q < be.Queues(); q++ {
				drainRx(be, q)
			}
		}
		be.TxBurst(0, [][]byte{conformanceFrame(300 + round)})
		cur := be.Stats()
		if cur.RxPackets < prev.RxPackets || cur.TxPackets < prev.TxPackets ||
			cur.RxDrops < prev.RxDrops || cur.TxDrops < prev.TxDrops {
			t.Fatalf("stats went backwards: %+v -> %+v", prev, cur)
		}
		if cur.TxPackets == prev.TxPackets {
			t.Fatalf("TxPackets flat across an accepted transmit: %+v", cur)
		}
		prev = cur
	}
}

func conformQueueError(t *testing.T, h conformanceHarness) {
	be, _, cleanup := h.make(t)
	defer cleanup()
	// A healthy backend reports nil from every queue: fatal errors are
	// reserved for unpollable-away conditions, never ordinary emptiness.
	for q := 0; q < be.Queues(); q++ {
		if err := be.QueueError(q); err != nil {
			t.Fatalf("healthy backend queue %d reports %v, want nil", q, err)
		}
	}
	if err := be.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// After Close the backend was intentionally released — not a failure.
	for q := 0; q < be.Queues(); q++ {
		if err := be.QueueError(q); err != nil {
			t.Fatalf("closed backend queue %d reports %v, want nil", q, err)
		}
	}
}

// closeCountBackend counts Close calls reaching the wrapped backend, so the
// close-race check can assert exactly-once release through the Port layer.
type closeCountBackend struct {
	PortBackend
	closes atomic.Int32
}

func (b *closeCountBackend) Close() error {
	b.closes.Add(1)
	return b.PortBackend.Close()
}

// conformCloseRace drives a switch over the backend with live workers and
// races two concurrent Switch.Close calls against them: the backend must be
// released exactly once, bursts after Close must return 0, and the workers
// must exit cleanly.
func conformCloseRace(t *testing.T, h conformanceHarness) {
	be, _, cleanup := h.make(t)
	defer cleanup()
	ccb := &closeCountBackend{PortBackend: be}
	sw := NewSwitchWithConfig(DatapathFunc(dropDatapath), SwitchConfig{Backends: []PortBackend{ccb}})
	stop := sw.RunWorkers(1)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sw.Close(); err != nil {
				t.Errorf("racing Close: %v", err)
			}
		}()
	}
	wg.Wait()
	stop()
	if n := ccb.closes.Load(); n != 1 {
		t.Fatalf("backend Close reached the backend %d times, want exactly 1", n)
	}
	// Close after the workers stopped stays idempotent through the Port.
	if err := sw.Close(); err != nil {
		t.Fatalf("post-race Close: %v", err)
	}
	if n := ccb.closes.Load(); n != 1 {
		t.Fatalf("idempotent re-Close reached the backend (%d calls)", n)
	}
}

func conformClose(t *testing.T, h conformanceHarness) {
	be, _, cleanup := h.make(t)
	defer cleanup()
	if err := be.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := be.Close(); err != nil {
		t.Fatalf("second Close: %v (must be idempotent)", err)
	}
	out := make([][]byte, 4)
	for q := 0; q < be.Queues(); q++ {
		if n := be.RxBurst(q, out); n != 0 {
			t.Fatalf("RxBurst after Close = %d, want 0", n)
		}
	}
	// TxBurst after Close must not panic; in-memory backends may still
	// accept (nothing to release), real sockets must refuse.
	_ = be.TxBurst(0, [][]byte{conformanceFrame(400)})
}

// drainRx empties queue q (bounded, so a misbehaving backend cannot hang the
// suite).
func drainRx(be PortBackend, q int) {
	out := make([][]byte, 32)
	for i := 0; i < 1024; i++ {
		if be.RxBurst(q, out) == 0 {
			return
		}
	}
}

// isConformanceFrame reports whether f carries the suite's magic prefix and
// ethertype, distinguishing injected frames from kernel noise on real
// interfaces.
func isConformanceFrame(f []byte) bool {
	return len(f) >= 14 && f[12] == 0x88 && f[13] == 0xb5 &&
		bytes.HasPrefix(f, []byte{0x02, 0xe5, 0x17, 0xc4})
}

// collectRx gathers delivered frames from queue q: exact backends deliver
// synchronously (stop at the first empty burst), noise-tolerant ones are
// polled with a deadline until want frames bearing the suite's magic
// arrived.  Frames are copied out because backends may recycle their
// delivery buffers.
func collectRx(be PortBackend, q, want int, exact bool) [][]byte {
	var got [][]byte
	matched := 0
	out := make([][]byte, 4) // smaller than the injected set: exercises burst resumption
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := be.RxBurst(q, out)
		for i := 0; i < n; i++ {
			got = append(got, append([]byte(nil), out[i]...))
			if isConformanceFrame(out[i]) {
				matched++
			}
		}
		if n == 0 {
			if exact || matched >= want || time.Now().After(deadline) {
				return got
			}
			time.Sleep(time.Millisecond)
		}
	}
}
