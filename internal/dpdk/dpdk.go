// Package dpdk is the in-memory dataplane substrate standing in for the
// Intel DPDK environment of the paper's prototype (§4.2): multi-queue ports
// backed by single-producer/single-consumer rings, RSS steering of injected
// frames, burst-oriented receive and transmit, and run-to-completion worker
// loops sharded over queues so a single hot port scales across cores (the
// Fig. 19 scalability experiment).
//
// No kernel-bypass I/O happens here — the point of the substrate is to drive
// the switch datapaths with minimum-size frames at memory speed and to
// account for the fixed per-packet I/O cost the way the paper's model does.
//
// # Threading model
//
// Every port owns N RX/TX queue pairs (DefaultQueues unless configured).  A
// symmetric RSS hash over the injected frame's 5-tuple (pkt.RSSHash) steers
// each frame to one RX queue, so both directions of a flow land on the same
// queue.  RunWorkers starts one run-to-completion goroutine ("core") per
// worker; worker w owns the RX queue indices q ≡ w (mod workers) of every
// port and TX queue w of every port, so each ring keeps exactly one producer
// and one consumer and the workers share nothing but the datapath.  Every
// worker registers a Worker handle with the datapath and classifies each RX
// burst through it — the one classify path.  The compiled ESWITCH
// datapath's handle bundles the worker-local resource plane (quiescence
// epoch, burst scratch, verdict cache), and the Enter/Exit bracket around
// every poll iteration is what lets concurrent flow-table updates retire
// superseded flow-table versions safely while the steady-state loop takes
// zero locks and shares no mutable state; a DatapathFunc (the OVS baseline)
// is its own stateless handle.
// PollOnce is one iteration of that same worker, run on a persistent poll
// worker the switch builds at the first call (its own counter block and
// registered handle), so single-threaded harnesses time the code RunWorkers
// runs.
//
// Transmission is batched: verdicts accumulate frames into per-worker,
// per-port staging buffers that are flushed to the TX rings with one
// EnqueueBurst per port at the end of each poll iteration, and forwarding
// statistics accumulate in padded per-worker counters folded together by
// Stats() on demand — the hot loop performs no shared-cache-line writes.
// A full TX ring drops what it did not take, as a NIC's descriptor ring does.
package dpdk

import (
	"fmt"
	"sync/atomic"

	"eswitch/internal/hist"
	"eswitch/internal/lockcount"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/slowpath"
)

// DefaultBurst is the burst size used by the RX/TX loops (DPDK's customary
// 32-packet bursts).
const DefaultBurst = 32

// DefaultQueues is the number of RX/TX queue pairs per port, and therefore
// the largest worker count that still scales a single hot port (a NIC-like
// default; SwitchConfig.Queues configures it).
const DefaultQueues = 8

// FailMode is the switch's controller-loss policy: what the dataplane does
// with controller-dependent packets (ToController verdicts) while the control
// channel is down.  The supervisor flips the mode on disconnect/reconnect;
// the workers read it with one atomic load per punted packet — never on the
// pure forwarding path.
type FailMode uint32

const (
	// FailNormal is the healthy-channel mode: punts flow to the armed
	// rings as usual.
	FailNormal FailMode = iota
	// FailStandalone keeps the dataplane forwarding on its own: installed
	// flows (including the forwarding half of "output:N,controller"
	// verdicts) keep transmitting at full rate, while the punt half is
	// suppressed and counted (PuntSuppressed) instead of queued for a
	// controller that cannot answer.
	FailStandalone
	// FailSecure drops controller-dependent packets entirely: a packet
	// whose verdict punts — a table miss or an explicit controller output,
	// even one that also forwards — is discarded (counted in both
	// PuntSuppressed and Dropped).  Flows with purely local verdicts are
	// unaffected.
	FailSecure
)

// ParseFailMode parses a fail-mode flag value (normal | standalone | secure).
func ParseFailMode(s string) (FailMode, error) {
	switch s {
	case "normal":
		return FailNormal, nil
	case "standalone":
		return FailStandalone, nil
	case "secure":
		return FailSecure, nil
	}
	return FailNormal, fmt.Errorf("dpdk: unknown fail mode %q (want normal, standalone or secure)", s)
}

// String renders the mode the way ParseFailMode reads it.
func (m FailMode) String() string {
	switch m {
	case FailStandalone:
		return "standalone"
	case FailSecure:
		return "secure"
	}
	return "normal"
}

// Datapath is the interface the workers drive; the compiled ESWITCH
// datapath (*core.Datapath) and DatapathFunc satisfy it.  Every worker
// registers a Worker handle, brackets each poll iteration with its
// Enter/Exit and classifies each RX burst through its ProcessBurst.
// Process serves only output:TABLE re-injection on the slow path
// (packetout.go).
type Datapath interface {
	Process(p *pkt.Packet, v *openflow.Verdict)
	RegisterWorker() Worker
	UnregisterWorker(Worker)
}

// Worker is one forwarding worker's handle on a Datapath.  The compiled
// datapath's (core.Worker) carries the worker's quiescence epoch and its
// worker-local resources (burst scratch, verdict cache), so ProcessBurst is
// the zero-lock, zero-atomic-RMW, zero-shared-state burst path while
// flow-table updates proceed concurrently.  It is an alias for the
// anonymous interface so the concrete handle type lives with the datapath
// implementation without an import here.
type Worker = interface {
	Enter()
	Exit()
	// ProcessBurst classifies one burst on the worker's private resources;
	// it must run inside the worker's Enter/Exit bracket.
	ProcessBurst(ps []*pkt.Packet, vs []openflow.Verdict)
}

// DatapathFunc adapts a per-packet function to the Datapath interface.  It
// is its own stateless Worker: RegisterWorker hands back f, Enter, Exit and
// UnregisterWorker do nothing, and ProcessBurst calls f once per packet.
type DatapathFunc func(p *pkt.Packet, v *openflow.Verdict)

// Process implements Datapath.
func (f DatapathFunc) Process(p *pkt.Packet, v *openflow.Verdict) { f(p, v) }

// RegisterWorker implements Datapath.
func (f DatapathFunc) RegisterWorker() Worker { return f }

// UnregisterWorker implements Datapath.
func (DatapathFunc) UnregisterWorker(Worker) {}

// Enter implements Worker.
func (DatapathFunc) Enter() {}

// Exit implements Worker.
func (DatapathFunc) Exit() {}

// ProcessBurst implements Worker.
func (f DatapathFunc) ProcessBurst(ps []*pkt.Packet, vs []openflow.Verdict) {
	for i, p := range ps {
		f(p, &vs[i])
	}
}

// Switch ties ports and a datapath together and runs run-to-completion
// forwarding loops over them.
type Switch struct {
	ports []*Port
	dp    Datapath
	// queues is the widest port's RX/TX queue-pair count (the RX sharding
	// width: workers poll queue indices up to it, skipping narrower ports);
	// minQueues is the narrowest port's, and bounds the worker count so
	// every worker's TX queue index is valid on every port.  Equal unless
	// the backend set is heterogeneous.
	queues    int
	minQueues int
	// punt, when armed, holds one slow-path punt ring per TX-queue index, so
	// every worker (the PollOnce worker owns queue 0's TX side, like
	// RunWorkers' first) pushes to its own single-producer ring.  Arm it
	// before the first poll; workers read it un-synchronized.
	punt []*slowpath.Ring
	// failMode is the controller-loss policy (FailMode); the supervisor
	// stores it, workers load it once per PUNTED packet — the pure
	// forwarding path never reads it.
	failMode atomic.Uint32
	// puntFilterSize/puntFilterWindow configure the per-worker punt-storm
	// filter (SetPuntFilter); workers materialize their private filter
	// lazily, like the punt rings.  Size is a power of two (mask = size-1).
	puntFilterSize   int
	puntFilterWindow uint64
	// reinjected counts output:TABLE PacketOut frames classified through
	// the datapath, and reinjectPunts those the pipeline punted right back
	// (see packetout.go).
	reinjected    atomic.Uint64
	reinjectPunts atomic.Uint64

	// mu guards counter registration; the forwarding loops never touch
	// it.  The acquisition counter backs the zero-lock acceptance tests.
	mu lockcount.Mutex
	// counters holds the live workers' statistics blocks and base the
	// folded totals of retired ones, so Stats stays monotonic while the
	// registration list stays bounded by the number of live workers.
	counters []*workerCounters
	base     WorkerStats
	// latBase folds retired workers' burst-duration histograms, mirroring
	// base for the counters.
	latBase hist.Snapshot
	// latSample arms the per-burst latency sampling (SetLatencySampling);
	// workers load it once per poll iteration, never per packet.
	latSample atomic.Bool
	// hbs is the live RunWorkers workers' heartbeat blocks, published as a
	// copy-on-write slice so the port supervisor's watchdog scan reads it
	// without touching mu (the PollOnce worker carries no heartbeat — its
	// caller owns its own liveness).
	hbs atomic.Pointer[[]*workerHeartbeat]

	// poll is the PollOnce worker, built at the first call and kept for the
	// switch's lifetime (only PollOnce's one caller touches it).
	poll *workerState
}

// SwitchConfig configures NewSwitchWithConfig.
type SwitchConfig struct {
	// Backends, when non-empty, supplies one packet I/O backend per port
	// (port IDs 1..len(Backends) in order) and NumPorts/RingSize/Queues are
	// ignored.  When empty, the switch gets NumPorts simulated-ring ports.
	Backends []PortBackend
	// NumPorts is the simulated-ring port count when Backends is empty.
	NumPorts int
	// RingSize is the simulated ring capacity (<= 0 selects 4096).
	RingSize int
	// Queues is the RX/TX queue-pair count per simulated port (<= 0 selects
	// DefaultQueues) — the maximum worker count that still scales one hot
	// port.
	Queues int
}

// NewSwitchWithConfig creates a switch over the configured ports.  Every
// worker — RunWorkers' and PollOnce's — registers a handle with dp and
// classifies whole RX bursts through it.
func NewSwitchWithConfig(dp Datapath, cfg SwitchConfig) *Switch {
	s := &Switch{dp: dp}
	if len(cfg.Backends) > 0 {
		for i, be := range cfg.Backends {
			s.ports = append(s.ports, NewPortWithConfig(PortConfig{ID: uint32(i + 1), Backend: be}))
		}
	} else {
		queues := cfg.Queues
		if queues < 1 {
			queues = DefaultQueues
		}
		for i := 0; i < cfg.NumPorts; i++ {
			s.ports = append(s.ports, NewPortWithConfig(PortConfig{
				ID: uint32(i + 1), RingSize: cfg.RingSize, Queues: queues,
			}))
		}
	}
	// The RX sharding width is the widest port (narrower ports are skipped
	// per queue); the worker clamp is the narrowest, so every worker's TX
	// queue exists on every port.  A port-less switch keeps the configured
	// width so punt-ring geometry still matches later expectations.
	s.queues, s.minQueues = cfg.Queues, cfg.Queues
	if s.queues < 1 {
		s.queues, s.minQueues = 1, 1
	}
	for i, p := range s.ports {
		if i == 0 {
			s.queues, s.minQueues = p.nq, p.nq
			continue
		}
		if p.nq > s.queues {
			s.queues = p.nq
		}
		if p.nq < s.minQueues {
			s.minQueues = p.nq
		}
	}
	return s
}

// Close closes every port's backend, returning the first error.  Safe to
// call after stopping the workers, and safe to race them or another Close:
// each port closes its backend exactly once, and backends return 0 from
// bursts after Close rather than panic.
func (s *Switch) Close() error {
	var first error
	for _, p := range s.ports {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Port returns the port with the given 1-based ID.
func (s *Switch) Port(id uint32) (*Port, error) {
	if id == 0 || int(id) > len(s.ports) {
		return nil, fmt.Errorf("dpdk: no port %d", id)
	}
	return s.ports[id-1], nil
}

// Ports returns all ports.
func (s *Switch) Ports() []*Port { return s.ports }

// NumQueues returns the number of RX/TX queue pairs per port.
func (s *Switch) NumQueues() int { return s.queues }

// ClampWorkers returns the worker count RunWorkers will actually start for a
// requested count: at least one, at most the narrowest port's queue count
// (so every worker's TX queue index exists on every port).
func (s *Switch) ClampWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	if n > s.minQueues {
		n = s.minQueues
	}
	return n
}

// MutexOps returns how many times the switch's registration mutex has been
// acquired; tests assert it stays flat across steady-state polling.  (Note
// Stats itself acquires it.)
func (s *Switch) MutexOps() uint64 { return s.mu.Ops() }

// ArmPuntRings gives every TX-queue index (and therefore every worker) a
// bounded slow-path punt ring of the given capacity and per-slot frame size
// (slowpath defaults when <= 0): from then on every ToController verdict is
// copied — frame, in-port, punt reason, originating table — into the
// observing worker's own ring, drop-on-full, instead of being discarded.
// Arm before the first poll; the returned rings are what a slowpath.Service
// drains.  Calling it again replaces the rings (anything still queued in the
// old ones is abandoned), so arm once per switch lifetime in practice.
//
// A ring whose usable capacity is below the RX burst size is rejected: a
// punt burst larger than the ring lets the burst's leading flows monopolize
// the slots pass after pass while every flow behind them drops — a discovery
// livelock for reactive controllers, not just lost PacketIns.
func (s *Switch) ArmPuntRings(capacity, frameCap int) ([]*slowpath.Ring, error) {
	rings := s.armPuntRings(capacity, frameCap)
	if usable := rings[0].Capacity(); usable < DefaultBurst {
		s.punt = nil
		return nil, fmt.Errorf("dpdk: punt ring capacity %d is below the RX burst (%d): a burst-sized punt wave would livelock flow discovery; size rings >= the burst", usable, DefaultBurst)
	}
	return rings, nil
}

// armPuntRings is ArmPuntRings without the burst-size check; tests that
// exercise deliberate ring overflow use it in-package.
func (s *Switch) armPuntRings(capacity, frameCap int) []*slowpath.Ring {
	if capacity <= 0 {
		capacity = slowpath.DefaultRingCapacity
	}
	rings := make([]*slowpath.Ring, s.queues)
	sample := s.latSample.Load()
	for i := range rings {
		rings[i] = slowpath.NewRing(capacity, frameCap)
		rings[i].SetLatencySampling(sample)
	}
	s.punt = rings
	return rings
}

// SetFailMode selects the controller-loss policy (see FailMode); the
// supervisor flips it on disconnect/reconnect.  Safe to call while workers
// run: it is one atomic store, observed by each worker at its next punted
// packet.
func (s *Switch) SetFailMode(m FailMode) { s.failMode.Store(uint32(m)) }

// FailMode returns the current controller-loss policy.
func (s *Switch) FailMode() FailMode { return FailMode(s.failMode.Load()) }

// SetPuntFilter arms the per-worker punt-storm filter: each worker gets a
// private direct-mapped table of `entries` (rounded up to a power of two)
// recently-punted flow hashes, and a microflow that punted within the last
// `windowPolls` poll iterations has its repeat punts withheld (counted in
// PuntFiltered) instead of queued.  The first punt of every microflow always
// passes, so one elephant miss cannot monopolize the punt rings or the
// PacketIn token bucket while distinct flows are still being discovered.
// Hash collisions evict the previous occupant (a colliding flow merely
// re-punts), and false filtering is bounded by the window.  Arm before the
// first poll; entries <= 0 disarms.
func (s *Switch) SetPuntFilter(entries, windowPolls int) {
	if entries <= 0 {
		s.puntFilterSize = 0
		return
	}
	size := 1
	for size < entries {
		size <<= 1
	}
	if windowPolls < 1 {
		windowPolls = 1
	}
	s.puntFilterSize = size
	s.puntFilterWindow = uint64(windowPolls)
}

// SetLatencySampling arms (or disarms) the telemetry plane's latency
// histograms: per-worker burst classification duration and, on every armed
// punt ring, push→pop punt queueing latency.  Off by default — the worker
// path pays nothing until the plane is armed — and safe to flip while
// workers run: each worker reads the gate once per poll iteration with one
// atomic load, and with sampling on the extra per-burst cost is two clock
// reads and two atomic adds, preserving the zero-lock/zero-alloc contract.
func (s *Switch) SetLatencySampling(on bool) {
	s.latSample.Store(on)
	for _, r := range s.punt {
		r.SetLatencySampling(on)
	}
}

// LatencySampling reports whether latency sampling is currently armed.
func (s *Switch) LatencySampling() bool { return s.latSample.Load() }

// PuntLatency folds the punt rings' queueing-latency histograms
// (nanoseconds from a worker's Push to the slow-path service's Pop).  All
// zero until SetLatencySampling(true) — and with the rings unarmed.
func (s *Switch) PuntLatency() hist.Snapshot {
	var t hist.Snapshot
	for _, r := range s.punt {
		r.LatencyAddTo(&t)
	}
	return t
}
