package dpdk

import (
	"sync/atomic"
)

// PortStats are per-port packet counters.
type PortStats struct {
	RxPackets uint64
	TxPackets uint64
	RxDrops   uint64
	TxDrops   uint64
	// RxErrors/TxErrors count I/O syscalls that failed with something other
	// than backpressure (EAGAIN/ENOBUFS) — transient noise and fatal errnos
	// alike.  Simulated backends never report them.
	RxErrors uint64
	TxErrors uint64
}

// Port is a switch port: a thin accounting shell around a
// PortBackend, which owns the actual frame I/O (simulated rings by default;
// pcap replay and AF_PACKET sockets for real traffic).  The switch-facing
// queue contract is the backend's: queue q has one consumer (the owning
// worker's RxBurst) and one producer (that worker's TxBurst) at a time.
type Port struct {
	ID uint32
	be PortBackend
	// nq caches be.Queues() so the poll loop's per-queue bound check never
	// makes an interface call.
	nq int
	// inj/slow are the backend's optional extensions, resolved once at
	// construction so the hot paths do plain nil checks instead of type
	// asserts.
	inj  InjectableBackend
	slow SlowPathTransmitter

	// policyDrops counts frames abandoned above the backend — a full TX
	// ring's remainder, slow-path transmission without a
	// SlowPathTransmitter — and folds into Stats().TxDrops.
	policyDrops atomic.Uint64

	// link is the port's link state (LinkState values), written by the port
	// supervisor and read by every worker once per poll — the workers' whole
	// involvement in the link-state machine is skipping Down ports.  The
	// zero value is LinkUp, so switches without a supervisor behave exactly
	// as before.
	link atomic.Uint32
	// closed makes Close exactly-once at the port layer, so a Switch.Close
	// racing another (or a supervisor shutdown) calls the backend's Close
	// once even though backends are also individually idempotent.
	closed atomic.Bool
}

// PortConfig configures NewPortWithConfig.  The zero value (plus an ID)
// means a single-queue simulated ring port of default ring size.
type PortConfig struct {
	// ID is the 1-based OpenFlow port number.
	ID uint32
	// Backend supplies the packet I/O implementation.  Nil selects a
	// RingBackend built from RingSize and Queues.
	Backend PortBackend
	// RingSize is the per-ring frame capacity of the default ring backend
	// (<= 0 selects 4096); ignored when Backend is set.
	RingSize int
	// Queues is the RX/TX queue-pair count of the default ring backend
	// (<= 0 selects 1); ignored when Backend is set.
	Queues int
}

// defaultRingSize is the ring capacity PortConfig/SwitchConfig fall back to.
const defaultRingSize = 4096

// NewPortWithConfig creates a port driving the configured backend.
func NewPortWithConfig(cfg PortConfig) *Port {
	be := cfg.Backend
	if be == nil {
		size := cfg.RingSize
		if size <= 0 {
			size = defaultRingSize
		}
		be = NewRingBackend(size, cfg.Queues)
	}
	p := &Port{ID: cfg.ID, be: be, nq: be.Queues()}
	if inj, ok := be.(InjectableBackend); ok {
		p.inj = inj
	}
	if slow, ok := be.(SlowPathTransmitter); ok {
		p.slow = slow
	}
	return p
}

// Backend returns the port's packet I/O backend.
func (p *Port) Backend() PortBackend { return p.be }

// InjectOn places a frame on RX queue q of an injectable backend; q ==
// AutoQueue steers by the frame's symmetric RSS hash, the way a multi-queue
// NIC's RSS does in hardware.  Each queue is single-producer, so one
// goroutine at a time may inject into a given queue; producers that
// precompute the steering pass explicit disjoint queues to shard injection.
// Ports whose backend does not accept injection (real I/O) report false.
func (p *Port) InjectOn(q int, frame []byte) bool {
	if p.inj == nil {
		return false
	}
	return p.inj.InjectOn(q, frame)
}

// RxQueueLen returns the number of frames waiting in RX queue q of an
// injectable backend (0 for real-I/O backends, whose queues live outside the
// process).
func (p *Port) RxQueueLen(q int) int {
	if p.inj == nil {
		return 0
	}
	return p.inj.RxQueueLen(q)
}

// TransmitSlow transmits a controller-originated (PacketOut) frame outside
// the worker-owned TX queues, keeping those single-producer.  One slow-path
// service at a time may transmit.  Backends without a slow-path lane count
// the frame as a drop.
func (p *Port) TransmitSlow(frame []byte) bool {
	if p.slow == nil {
		p.policyDrops.Add(1)
		return false
	}
	return p.slow.TransmitSlow(frame)
}

// countTxDrops records n staged frames a full TX ring did not take (the
// worker keeps its own per-worker tally too).
func (p *Port) countTxDrops(n int) { p.policyDrops.Add(uint64(n)) }

// DrainTx empties an injectable backend's TX queues (including the
// slow-path ring), returning the number of frames drained (a traffic sink /
// loopback tester).  Real-I/O backends transmit for real; there is nothing
// to drain and DrainTx returns 0.
func (p *Port) DrainTx() int {
	if p.inj == nil {
		return 0
	}
	return p.inj.DrainTx()
}

// Close releases the backend's resources.  Idempotent, and exactly-once
// toward the backend: concurrent Close calls race benignly on the swap and
// only the winner reaches the backend.
func (p *Port) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	return p.be.Close()
}

// Closed reports whether the port was closed (the supervisor stops scanning
// and reopening a closed port).
func (p *Port) Closed() bool { return p.closed.Load() }

// LinkState returns the port's current link state.
func (p *Port) LinkState() LinkState { return LinkState(p.link.Load()) }

// setLink publishes a link-state transition (the port supervisor's side of
// the machine; workers only load).
func (p *Port) setLink(st LinkState) { p.link.Store(uint32(st)) }

// Stats returns a snapshot of the port counters: the backend's I/O counters
// with the switch-side drops folded into TxDrops.
func (p *Port) Stats() PortStats {
	st := p.be.Stats()
	st.TxDrops += p.policyDrops.Load()
	return st
}
