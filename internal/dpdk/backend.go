package dpdk

import (
	"sync/atomic"

	"eswitch/internal/pkt"
)

// This file defines the packet I/O backend abstraction.  A Port is the
// switch-facing object — accounting, slow-path wiring — while the
// PortBackend behind it owns the actual frame I/O.  Three backends ship with
// the repository:
//
//   - RingBackend: the simulated in-memory SPSC rings every benchmark has
//     always run against.  It is the default, and the only backend the
//     zero-lock/zero-alloc worker-path assertions are stated for.
//   - PcapBackend (pcap_backend.go): replays a captured trace file through
//     the full pipeline flat-out — realistic packet-size and flow-arrival
//     distributions for benchmarks.
//   - AFPacketBackend (afpacket_linux.go): a raw AF_PACKET socket bound to a
//     real Linux interface, so the switch forwards real frames (veth pairs,
//     physical NICs) for the first time.
//
// NullBackend rounds the set out as a pure TX sink for replay topologies.

// AutoQueue, passed as the queue index of Port.InjectOn, steers the injected
// frame by its symmetric RSS hash — what a multi-queue NIC does in hardware.
const AutoQueue = -1

// PortBackend is the packet I/O contract a Port drives.  Implementations own
// their queue geometry and their I/O counters; the switch's worker loops
// call RxBurst/TxBurst once per queue per poll iteration, so a backend that
// neither locks nor allocates on those paths keeps the steady-state worker
// path zero-lock and zero-alloc (the ring backend's guarantee).
type PortBackend interface {
	// Queues returns the number of RX/TX queue pairs.  Queue q of every
	// port is owned by exactly one worker at a time (single-consumer RX,
	// single-producer TX); backends with one queue are driven by worker 0
	// only.
	Queues() int
	// RxBurst fills out with up to len(out) received frames from RX queue
	// q, returning the count.  The returned slices are valid until the next
	// RxBurst on the same queue — real backends recycle their receive
	// buffers — so the caller must finish transmitting (or copy) before
	// polling again.  The simulated ring backend hands out the producer's
	// own slices, which live as long as the producer keeps them.
	RxBurst(q int, out [][]byte) int
	// TxBurst transmits the longest prefix of frames on TX queue q,
	// returning how many were accepted; accepted frames show in
	// Stats().TxPackets (the ring backend reads them off its rings'
	// indices, the others count them as they go).  Overflow accounting
	// belongs to the caller: the worker drops what did not fit and counts
	// it on the Port.
	TxBurst(q int, frames [][]byte) int
	// Stats snapshots the backend's I/O counters.
	Stats() PortStats
	// QueueError reports queue q's fatal I/O error, or nil while the queue
	// is healthy.  A fatal error is one the backend cannot recover from by
	// polling again — a dead fd (EBADF/ENETDOWN/ENXIO), an exhausted
	// non-looping trace — recorded by RxBurst/TxBurst off the return path so
	// the hot loop stays allocation-free.  The port supervisor polls this
	// off the worker path and drives the port's link-state machine from it;
	// EAGAIN-style backpressure is never fatal.  Simulated backends (ring,
	// null) are always healthy and return nil.  QueueError after Close
	// reports nil: an intentionally released backend is not a failure.
	QueueError(q int) error
	// Close releases the backend's resources.  It must be idempotent, and
	// RxBurst/TxBurst after Close must return 0 rather than panic.
	Close() error
}

// ReopenableBackend is the optional extension for backends that can
// re-acquire their I/O resource after a fatal error: the port supervisor's
// self-healing path calls Reopen under its backoff schedule while the port
// is Down.  Reopen re-dials whatever the backend wraps (AF_PACKET re-opens
// and re-binds its socket) and clears the queue-error slots on success; it
// must only be called while the port is quiesced (workers skip Down ports),
// and a failed Reopen leaves the backend Down-safe (bursts keep returning
// 0).  Backends without this extension — an exhausted pcap trace has
// nothing to re-dial — stay Down permanently.
type ReopenableBackend interface {
	Reopen() error
}

// InjectableBackend is the optional extension simulated backends implement:
// direct frame injection into the RX queues and TX draining, which is how
// tests, benchmarks and the in-process traffic generators drive a switch
// without real I/O.
type InjectableBackend interface {
	// InjectOn places a frame on RX queue q (AutoQueue = steer by RSS
	// hash), reporting false when the queue is full.
	InjectOn(q int, frame []byte) bool
	// RxQueueLen returns the number of frames waiting in RX queue q.
	RxQueueLen(q int) int
	// DrainTx empties all TX queues, returning the number of frames
	// drained (a traffic sink / loopback tester).
	DrainTx() int
}

// SlowPathTransmitter is the optional extension for controller-originated
// (PacketOut) transmission outside the worker-owned TX queues.  The ring
// backend uses a dedicated slow-path ring so the TX queues stay
// single-producer; the AF_PACKET backend sends directly (the kernel
// serializes concurrent sends on one socket).
type SlowPathTransmitter interface {
	TransmitSlow(frame []byte) bool
}

// RingBackend is the simulated packet I/O backend: N RX/TX queue pairs of
// bounded SPSC rings plus a dedicated slow-path TX ring, all in memory.  It
// is the substrate the repository benchmark (bash bench/run.sh) forwards
// through — frames move at memory speed, so the numbers isolate the
// dataplane from NIC hardware — and the backend the zero-lock/zero-alloc
// worker-path guarantee is asserted on.
//
// A ring's tail index only ever grows by the frames it accepted, so the
// rings are their own packet counters: Stats sums the RX rings' tails for
// RxPackets and the TX and slow-path rings' tails for TxPackets, and no
// burst pays an atomic add to count.  Only refusals, which leave no trace
// in a ring, have counters of their own.
type RingBackend struct {
	rxq []*Ring
	txq []*Ring
	// spq carries controller-originated PacketOut frames so the slow-path
	// service never shares a worker-owned TX queue.
	spq *Ring

	rxDrops atomic.Uint64
	txDrops atomic.Uint64
}

// NewRingBackend creates a ring backend with the given number of RX/TX queue
// pairs, each ring holding ringSize frames (<= 0 selects 4096).
func NewRingBackend(ringSize, queues int) *RingBackend {
	if ringSize <= 0 {
		ringSize = defaultRingSize
	}
	if queues < 1 {
		queues = 1
	}
	b := &RingBackend{}
	for q := 0; q < queues; q++ {
		b.rxq = append(b.rxq, NewRing(ringSize))
		b.txq = append(b.txq, NewRing(ringSize))
	}
	b.spq = NewRing(ringSize)
	return b
}

// Queues implements PortBackend.
func (b *RingBackend) Queues() int { return len(b.rxq) }

// RxBurst implements PortBackend: a bare SPSC dequeue, no locks, no
// allocation, no counter updates (frames were counted when injected).
func (b *RingBackend) RxBurst(q int, out [][]byte) int {
	return b.rxq[q].DequeueBurst(out)
}

// TxBurst implements PortBackend: the longest prefix that fits on the TX
// ring is accepted (and counted by the ring's tail); the caller accounts the
// rest.
func (b *RingBackend) TxBurst(q int, frames [][]byte) int {
	return b.txq[q].EnqueueBurst(frames)
}

// InjectOn implements InjectableBackend: the producer side of the RX rings.
// AutoQueue steers by the frame's symmetric RSS hash (what a multi-queue NIC
// does in hardware); producers that precompute the steering pass an explicit
// queue to keep injection a bare ring enqueue.
func (b *RingBackend) InjectOn(q int, frame []byte) bool {
	if q == AutoQueue {
		q = 0
		if len(b.rxq) > 1 {
			q = int(pkt.RSSHash(frame) % uint32(len(b.rxq)))
		}
	}
	if b.rxq[q].Enqueue(frame) {
		return true
	}
	b.rxDrops.Add(1)
	return false
}

// RxQueueLen implements InjectableBackend.
func (b *RingBackend) RxQueueLen(q int) int { return b.rxq[q].Len() }

// DrainTx implements InjectableBackend: empty all TX queues including the
// slow-path ring.
func (b *RingBackend) DrainTx() int {
	n := b.spq.Discard()
	for _, q := range b.txq {
		n += q.Discard()
	}
	return n
}

// TxDequeue removes one frame from TX queue q — the consumer side of the
// simulated wire, used by loopback harnesses and tests to observe what the
// switch transmitted.
func (b *RingBackend) TxDequeue(q int) ([]byte, bool) {
	return b.txq[q].Dequeue()
}

// TransmitSlow implements SlowPathTransmitter via the dedicated slow-path
// ring (one slow-path service at a time may transmit).
func (b *RingBackend) TransmitSlow(frame []byte) bool {
	if b.spq.Enqueue(frame) {
		return true
	}
	b.txDrops.Add(1)
	return false
}

// Stats implements PortBackend: the packet counts are the rings' tails.
func (b *RingBackend) Stats() PortStats {
	st := PortStats{
		TxPackets: b.spq.tail.Load(),
		RxDrops:   b.rxDrops.Load(),
		TxDrops:   b.txDrops.Load(),
	}
	for q := range b.rxq {
		st.RxPackets += b.rxq[q].tail.Load()
		st.TxPackets += b.txq[q].tail.Load()
	}
	return st
}

// QueueError implements PortBackend: memory never fails.
func (b *RingBackend) QueueError(q int) error { return nil }

// Close implements PortBackend.  Rings hold no external resources; Close
// exists so heterogeneous backend sets can be shut down uniformly.
func (b *RingBackend) Close() error { return nil }

// NullBackend is a pure sink: it never receives and accepts (and discards)
// every transmitted frame, counting it.  Replay topologies use it for the
// egress ports of a pcap-driven switch, where holding transmitted frames in
// rings would alias the replay backend's recycled receive buffers.
type NullBackend struct {
	queues    int
	txPackets atomic.Uint64
}

// NewNullBackend creates a sink with the given queue-pair count (minimum 1).
func NewNullBackend(queues int) *NullBackend {
	if queues < 1 {
		queues = 1
	}
	return &NullBackend{queues: queues}
}

// Queues implements PortBackend.
func (b *NullBackend) Queues() int { return b.queues }

// RxBurst implements PortBackend: a sink never receives.
func (b *NullBackend) RxBurst(q int, out [][]byte) int { return 0 }

// TxBurst implements PortBackend: every frame is accepted and discarded.
func (b *NullBackend) TxBurst(q int, frames [][]byte) int {
	if len(frames) > 0 {
		b.txPackets.Add(uint64(len(frames)))
	}
	return len(frames)
}

// TransmitSlow implements SlowPathTransmitter (counted and discarded).
func (b *NullBackend) TransmitSlow(frame []byte) bool {
	b.txPackets.Add(1)
	return true
}

// Stats implements PortBackend.
func (b *NullBackend) Stats() PortStats {
	return PortStats{TxPackets: b.txPackets.Load()}
}

// QueueError implements PortBackend: a sink never fails.
func (b *NullBackend) QueueError(q int) error { return nil }

// Close implements PortBackend.
func (b *NullBackend) Close() error { return nil }
