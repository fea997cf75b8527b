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
// and one consumer and the workers share nothing but the datapath.  When the
// datapath supports worker registration (WorkerDatapath — the compiled
// ESWITCH datapath does), each worker registers a handle bundling its
// worker-local resource plane — quiescence epoch, burst scratch, verdict
// cache — and brackets every poll iteration with Enter/Exit, which is what lets
// concurrent flow-table updates retire superseded flow-table versions safely
// while the steady-state loop takes zero locks and shares no mutable state.
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
// When a TX ring is full the switch's TxPolicy decides between dropping
// (NIC-like default), blocking with bounded backoff, or spilling into a
// worker-local backlog; see txpolicy.go.
package dpdk

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eswitch/internal/hist"
	"eswitch/internal/lockcount"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/slowpath"
)

// DefaultBurst is the burst size used by the RX/TX loops (DPDK's customary
// 32-packet bursts).
const DefaultBurst = 32

// latSampleEvery is the burst-duration sampling decimation: with latency
// sampling armed (SetLatencySampling), one classifyBurst call in
// latSampleEvery is timed.  Two time.Now reads cost a measurable fraction
// of a small burst, so the sampler trades census for a 1-in-N sample —
// statistically identical for a histogram, ~16x cheaper.
const latSampleEvery = 16

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

// Ring is a bounded single-producer/single-consumer queue of frames.
type Ring struct {
	buf  [][]byte
	mask uint64
	head atomic.Uint64 // next slot to read
	tail atomic.Uint64 // next slot to write
}

// NewRing creates a ring with capacity rounded up to a power of two.
func NewRing(capacity int) *Ring {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Ring{buf: make([][]byte, size), mask: uint64(size - 1)}
}

// Capacity returns the usable capacity of the ring.
func (r *Ring) Capacity() int { return len(r.buf) - 1 }

// Len returns the number of frames currently queued.
func (r *Ring) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Enqueue adds one frame, reporting false when the ring is full.
func (r *Ring) Enqueue(frame []byte) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.buf)-1) {
		return false
	}
	r.buf[tail&r.mask] = frame
	r.tail.Store(tail + 1)
	return true
}

// Dequeue removes one frame, reporting false when the ring is empty.
func (r *Ring) Dequeue() ([]byte, bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return nil, false
	}
	frame := r.buf[head&r.mask]
	r.head.Store(head + 1)
	return frame, true
}

// EnqueueBurst adds up to len(frames) frames, returning how many fit.
func (r *Ring) EnqueueBurst(frames [][]byte) int {
	n := 0
	for _, f := range frames {
		if !r.Enqueue(f) {
			break
		}
		n++
	}
	return n
}

// DequeueBurst fills out with up to len(out) frames, returning the count.
func (r *Ring) DequeueBurst(out [][]byte) int {
	n := 0
	for n < len(out) {
		f, ok := r.Dequeue()
		if !ok {
			break
		}
		out[n] = f
		n++
	}
	return n
}

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

// Port is a switch port: a thin accounting-and-policy shell around a
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

	// policyDrops counts frames abandoned above the backend — TX-policy
	// overflow, slow-path transmission without a SlowPathTransmitter — and
	// folds into Stats().TxDrops.
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

// NumQueues returns the number of RX/TX queue pairs.
func (p *Port) NumQueues() int { return p.nq }

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

// Transmit places one frame on TX queue 0 (the single-frame slow path; the
// worker loops use TxBurst instead).
func (p *Port) Transmit(frame []byte) bool {
	one := [1][]byte{frame}
	if p.be.TxBurst(0, one[:]) == 1 {
		return true
	}
	p.policyDrops.Add(1)
	return false
}

// TxBurst transmits a staged burst of frames on TX queue q, counting frames
// the backend did not accept as TX drops (what a NIC does when the
// descriptor ring is full).  It returns how many frames were accepted.
// Worker loops with a backpressure policy use the policy layer instead,
// which retries or spills before counting drops.
func (p *Port) TxBurst(q int, frames [][]byte) int {
	n := p.be.TxBurst(q, frames)
	if n < len(frames) {
		p.policyDrops.Add(uint64(len(frames) - n))
	}
	return n
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

// RxBurst receives up to len(out) frames from the port's RX queues in queue
// order (single-threaded harnesses; the workers poll their own queues).
func (p *Port) RxBurst(out [][]byte) int {
	n := 0
	for q := 0; q < p.nq; q++ {
		n += p.be.RxBurst(q, out[n:])
		if n == len(out) {
			break
		}
	}
	return n
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
// with the switch-side policy drops folded into TxDrops.
func (p *Port) Stats() PortStats {
	st := p.be.Stats()
	st.TxDrops += p.policyDrops.Load()
	return st
}

// Datapath is the interface the workers drive; both the ESWITCH compiled
// datapath and the OVS baseline satisfy it.  A plain Datapath is classified
// one packet at a time; a WorkerDatapath one RX burst at a time.
type Datapath interface {
	Process(p *pkt.Packet, v *openflow.Verdict)
}

// Worker is the per-worker handle of a WorkerDatapath: the worker's
// quiescence epoch plus its worker-local resources (burst scratch, verdict
// cache).  It is an alias for the anonymous interface so the concrete
// handle type lives with the datapath implementation (core.Worker) without
// an import here.
type Worker = interface {
	Enter()
	Exit()
	// ProcessBurst classifies one burst on the worker's private resources;
	// it must run inside the worker's Enter/Exit bracket.
	ProcessBurst(ps []*pkt.Packet, vs []openflow.Verdict)
}

// WorkerDatapath is the lock-free burst extension of Datapath: the datapath
// publishes its compiled state through atomic snapshots, workers register a
// handle carrying their worker-local resource plane (epoch, burst scratch,
// verdict cache), bracket every poll iteration with Enter/Exit, and classify
// through the handle's ProcessBurst — the zero-lock, zero-atomic-RMW,
// zero-shared-state burst path — while flow-table updates proceed
// concurrently.  The compiled ESWITCH datapath implements it; its verdict-cache
// counters are read from it directly (core.Datapath.FlowCacheStats), not
// through the substrate.
type WorkerDatapath interface {
	Datapath
	RegisterWorker() Worker
	UnregisterWorker(Worker)
}

// DatapathFunc adapts a function to the Datapath interface.
type DatapathFunc func(p *pkt.Packet, v *openflow.Verdict)

// Process implements Datapath.
func (f DatapathFunc) Process(p *pkt.Packet, v *openflow.Verdict) { f(p, v) }

// WorkerStats are aggregate forwarding counters (folded over the per-worker
// counters on demand).  Every field but Punts, PuntDrops (read from the punt
// rings) and PortsDown, PortsFlapping (link-state snapshots) is one row of
// WorkerCounterTable.  The cross-counter identities the fold guarantees are
// stated — and machine-checked — in one place: CheckInvariants.
type WorkerStats struct {
	Processed uint64
	Forwarded uint64
	Dropped   uint64
	ToCtrl    uint64
	// TxRetries counts TX enqueue re-attempts for frames that found their
	// TX ring full at least once (block and spill policies); TxDrops counts
	// frames abandoned after the policy's bounded retries (or immediately,
	// under the default drop policy).
	TxRetries uint64
	TxDrops   uint64
	// Punts counts ToController verdicts copied into a slow-path punt ring
	// and PuntDrops those lost to a full ring.  With the rings armed,
	// every punted verdict is exactly one of queued, ring-dropped,
	// degraded-mode-suppressed or storm-filtered:
	//
	//	Punts + PuntDrops + PuntSuppressed + PuntFiltered == ToCtrl
	//
	// which collapses to the original Punts+PuntDrops == ToCtrl whenever
	// the channel is healthy (FailNormal) and the punt filter is off or
	// idle.  All four stay zero with the rings unarmed and the mode normal
	// (punted packets are then counted and discarded).
	Punts     uint64
	PuntDrops uint64
	// PuntSuppressed counts punts withheld by a degraded fail mode
	// (standalone or secure) while the control channel was down.
	PuntSuppressed uint64
	// PuntFiltered counts punts withheld by the per-worker punt-storm
	// filter: the microflow punted recently and its repeat would only
	// crowd the ring (SetPuntFilter).
	PuntFiltered uint64
	// Panics counts datapath panics the workers' containment absorbed, and
	// Quarantined the received frames whose classification those panics
	// aborted (poison frames plus the rest of their burst).  Quarantined
	// frames count in Processed but in none of Forwarded/Dropped/ToCtrl —
	// they were received and then deliberately abandoned.
	Panics      uint64
	Quarantined uint64
	// PortsDown/PortsFlapping snapshot the link-state machine: how many
	// ports the supervisor currently holds Down (not polled) or has labeled
	// Flapping (polled, but recently bouncing).
	PortsDown     uint64
	PortsFlapping uint64
}

// CheckInvariants verifies the cross-counter identities the Stats() fold
// guarantees at rest (workers stopped or idle between polls — counters are
// published once per poll iteration, so a mid-burst snapshot may be torn).
// This is the canonical statement of the invariants; the per-field comments
// above and the scattered subsystem tests all defer to it.
//
// Slow-path accounting (puntRingsArmed true — with the rings unarmed,
// ring-push outcomes are never counted and only the degraded-mode terms can
// advance):
//
//	Punts + PuntDrops + PuntSuppressed + PuntFiltered == ToCtrl
//
// Every punted verdict is exactly one of: queued into a ring, dropped by a
// full ring, suppressed by a degraded fail mode, or withheld by the
// punt-storm filter.  The identity collapses to Punts+PuntDrops == ToCtrl
// whenever the channel stays healthy and the filter is idle.
//
// The verdict cache's identities are the datapath's, not the substrate's:
// core.FlowCacheStats.CheckInvariants.
func (st WorkerStats) CheckInvariants(puntRingsArmed bool) error {
	if puntRingsArmed {
		if got := st.Punts + st.PuntDrops + st.PuntSuppressed + st.PuntFiltered; got != st.ToCtrl {
			return fmt.Errorf("dpdk: punt invariant broken: %d queued + %d ring-dropped + %d suppressed + %d filtered = %d != %d to-controller",
				st.Punts, st.PuntDrops, st.PuntSuppressed, st.PuntFiltered, got, st.ToCtrl)
		}
	} else if st.Punts != 0 || st.PuntDrops != 0 {
		return fmt.Errorf("dpdk: %d punts queued / %d ring drops counted with the rings unarmed", st.Punts, st.PuntDrops)
	}
	return nil
}

// counter indexes one worker counter: a row of WorkerCounterTable, a slot of
// workerCounters and of stageTallies.
type counter int

const (
	cProcessed counter = iota
	cForwarded
	cDropped
	cToCtrl
	cTxRetries
	cTxDrops
	cPuntSuppressed
	cPuntFiltered
	cPanics
	cQuarantined
	numCounters
)

// WorkerCounter declares one worker counter: the metric family that exports
// it, its help text, and the WorkerStats field it folds into.
type WorkerCounter struct {
	Metric, Help string
	Field        func(*WorkerStats) *uint64
}

// WorkerCounterTable is every worker counter, declared once: the worker's
// per-poll tallies, its published atomics, the Stats() fold and the metric
// families (telemetry.RegisterSwitch) are all indexed by it.
var WorkerCounterTable = [numCounters]WorkerCounter{
	cProcessed:      {"eswitch_worker_processed_packets_total", "Packets received by forwarding workers (includes quarantined frames).", func(s *WorkerStats) *uint64 { return &s.Processed }},
	cForwarded:      {"eswitch_worker_forwarded_packets_total", "Packets forwarded out at least one port.", func(s *WorkerStats) *uint64 { return &s.Forwarded }},
	cDropped:        {"eswitch_worker_dropped_packets_total", "Packets dropped by pipeline verdict.", func(s *WorkerStats) *uint64 { return &s.Dropped }},
	cToCtrl:         {"eswitch_worker_to_controller_packets_total", "Packets with a ToController verdict.", func(s *WorkerStats) *uint64 { return &s.ToCtrl }},
	cTxRetries:      {"eswitch_tx_retries_total", "TX enqueue re-attempts under the block/spill full-ring policies.", func(s *WorkerStats) *uint64 { return &s.TxRetries }},
	cTxDrops:        {"eswitch_tx_backpressure_drops_total", "Frames abandoned to TX-ring backpressure.", func(s *WorkerStats) *uint64 { return &s.TxDrops }},
	cPuntSuppressed: {"eswitch_punts_suppressed_total", "Punts withheld by a degraded fail mode.", func(s *WorkerStats) *uint64 { return &s.PuntSuppressed }},
	cPuntFiltered:   {"eswitch_punts_filtered_total", "Punts withheld by the punt-storm filter.", func(s *WorkerStats) *uint64 { return &s.PuntFiltered }},
	cPanics:         {"eswitch_datapath_panics_total", "Datapath panics absorbed by worker containment.", func(s *WorkerStats) *uint64 { return &s.Panics }},
	cQuarantined:    {"eswitch_quarantined_frames_total", "Frames abandoned by panic containment.", func(s *WorkerStats) *uint64 { return &s.Quarantined }},
}

// stageTallies are one poll iteration's counts, published into the worker's
// counters once at the end of the iteration.
type stageTallies [numCounters]uint64

// workerCounters are one worker's forwarding counters.  They are updated
// once per poll iteration (not per packet) by their owning worker only; the
// trailing padding keeps each worker's counters on their own cache lines so
// Stats() snapshots never false-share with the hot loops.
type workerCounters struct {
	c [numCounters]atomic.Uint64
	_ [64 - numCounters*8%64]byte
	// lat is the worker's burst-duration histogram (nanoseconds per
	// classifyBurst call), recorded only while latency sampling is armed
	// (Switch.SetLatencySampling) and then only for one burst in
	// latSampleEvery (clock reads are a measurable fraction of a burst, so
	// the sampler decimates; the histogram is a sampled distribution, not a
	// census).  It sits after the padding so the counters above keep their
	// own cache line; the histogram's buckets are single-writer like
	// everything else in the block.
	lat hist.Histogram
}

// publish adds one iteration's nonzero tallies to the counters (the owning
// worker is the only writer).
func (c *workerCounters) publish(tal *stageTallies) {
	for i, v := range tal {
		if v > 0 {
			c.c[i].Add(v)
		}
	}
}

// foldInto adds the counters to t's WorkerCounterTable fields: the one fold
// behind Stats() and retireCounters.
func (c *workerCounters) foldInto(t *WorkerStats) {
	for i := range c.c {
		*WorkerCounterTable[i].Field(t) += c.c[i].Load()
	}
}

// Switch ties ports and a datapath together and runs run-to-completion
// forwarding loops over them.
type Switch struct {
	ports []*Port
	dp    Datapath
	// wdp is non-nil when the datapath supports registered worker handles;
	// the workers then classify RX bursts on them instead of per packet.
	wdp   WorkerDatapath
	burst int
	// queues is the widest port's RX/TX queue-pair count (the RX sharding
	// width: workers poll queue indices up to it, skipping narrower ports);
	// minQueues is the narrowest port's, and bounds the worker count so
	// every worker's TX queue index is valid on every port.  Equal unless
	// the backend set is heterogeneous.
	queues    int
	minQueues int
	// txPolicy is what workers do when a TX ring is full (drop | block |
	// spill).  Set it before the first poll; workers read it un-synchronized.
	txPolicy TxPolicy
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
	// reinjectPunts counts output:TABLE PacketOut frames the pipeline punted
	// right back (see packetout.go).
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
	// Burst is the RX/TX burst size (<= 0 selects DefaultBurst).
	Burst int
}

// NewSwitchWithConfig creates a switch over the configured ports.  When dp
// also implements WorkerDatapath (the compiled ESWITCH datapath does), every
// worker — RunWorkers' and PollOnce's — registers a handle and classifies
// whole RX bursts on the zero-lock path over its own resources (epoch, burst
// scratch, verdict cache); otherwise the workers call dp.Process per packet.
func NewSwitchWithConfig(dp Datapath, cfg SwitchConfig) *Switch {
	burst := cfg.Burst
	if burst <= 0 {
		burst = DefaultBurst
	}
	s := &Switch{dp: dp, burst: burst}
	if wdp, ok := dp.(WorkerDatapath); ok {
		s.wdp = wdp
	}
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

func allQueues(n int) []int {
	qs := make([]int, n)
	for i := range qs {
		qs[i] = i
	}
	return qs
}

// workerState is one worker's private memory plane: the RX frame burst, the
// packet structs wrapping it, the verdicts, the worker's queue assignment,
// the per-port TX staging buffers, the per-port TX spill backlog and the
// worker's statistics counters.  Everything is allocated once per worker —
// the buffers are worker-owned freelists that retain their capacity across
// polls — so the polling loop is allocation-free in the steady state and
// shares no mutable memory with any other worker.
type workerState struct {
	frames   [][]byte
	packets  []pkt.Packet
	pkts     []*pkt.Packet
	verdicts []openflow.Verdict
	// queues are the RX queue indices this worker owns on every port; txq
	// is the TX queue index it owns (one worker per queue keeps every ring
	// single-producer/single-consumer).
	queues []int
	txq    int
	// txStage stages outgoing frames per output port; it is flushed with
	// one TX burst per port at the end of each poll iteration.
	txStage [][][]byte
	// txSpill carries per-port frames whose TX ring was full under the
	// spill policy; they are re-attempted (in receive order, ahead of newly
	// staged frames) on subsequent polls.  spillPending caches the total
	// backlog so idle polls know whether a flush is still owed.
	txSpill      [][][]byte
	spillPending int
	// punt is the worker's slow-path punt ring (nil until the switch arms
	// punt rings; resolved lazily so states built before ArmPuntRings pick
	// their ring up on the next poll).
	punt *slowpath.Ring
	// puntFilter is the worker's private recently-punted filter (nil until
	// SetPuntFilter arms it; adopted lazily like the punt ring): a
	// direct-mapped table of (flow hash, last-punt poll) slots consulted
	// only on the punt path.  pollSeq is the worker's poll-iteration clock
	// the filter's recency window is measured in.
	puntFilter []puntFilterSlot
	pollSeq    uint64
	// latTick decimates burst-duration sampling: with sampling armed, one
	// burst in latSampleEvery is timed (starting with the first, so short
	// tests still observe samples).
	latTick uint64
	// worker is the datapath's registered worker handle (nil when the
	// datapath does not support worker registration, and packets are
	// classified one Datapath.Process call at a time).
	worker   Worker
	counters *workerCounters
	// hb is the worker's watchdog heartbeat block (nil for the PollOnce
	// worker, whose caller owns its liveness); the worker is its only writer.
	hb *workerHeartbeat
	// staged counts how many of the current burst's frames have completed
	// stage(), so panic containment knows how much of the burst to
	// quarantine.
	staged int
	// spin seeds the backoff's pause loop; keeping it per-worker (and
	// heap-reachable, which defeats dead-code elimination) means idle
	// workers share no cache line.
	spin uint64
}

// puntFilterSlot is one entry of the per-worker punt-storm filter.  seen is
// the worker's pollSeq at the last punt of this hash (0 = never; pollSeq
// starts at 1).
type puntFilterSlot struct {
	hash uint32
	seen uint64
}

// registerCounters allocates one statistics block and adds it to the fold
// set.
func (s *Switch) registerCounters() *workerCounters {
	c := &workerCounters{}
	s.mu.Lock()
	s.counters = append(s.counters, c)
	s.mu.Unlock()
	return c
}

// retireCounters folds a stopped worker's counts into the base totals and
// drops its block from the registration list.
func (s *Switch) retireCounters(c *workerCounters) {
	s.mu.Lock()
	c.foldInto(&s.base)
	c.lat.AddTo(&s.latBase)
	kept := s.counters[:0]
	for _, o := range s.counters {
		if o != c {
			kept = append(kept, o)
		}
	}
	s.counters = kept
	s.mu.Unlock()
}

// newWorkerState builds one worker's reusable state with its own registered
// counter block and, on a WorkerDatapath, its own registered worker handle.
func (s *Switch) newWorkerState(queues []int, txq int) *workerState {
	ws := &workerState{
		frames:   make([][]byte, s.burst),
		packets:  make([]pkt.Packet, s.burst),
		pkts:     make([]*pkt.Packet, s.burst),
		verdicts: make([]openflow.Verdict, s.burst),
		queues:   queues,
		txq:      txq,
		txStage:  make([][][]byte, len(s.ports)),
		txSpill:  make([][][]byte, len(s.ports)),
	}
	for i := range ws.packets {
		ws.pkts[i] = &ws.packets[i]
	}
	ws.counters = s.registerCounters()
	if s.wdp != nil {
		ws.worker = s.wdp.RegisterWorker()
	}
	return ws
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
	if usable := rings[0].Capacity(); usable < s.burst {
		s.punt = nil
		return nil, fmt.Errorf("dpdk: punt ring capacity %d is below the RX burst (%d): a burst-sized punt wave would livelock flow discovery; size rings >= the burst", usable, s.burst)
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

// Stats folds the per-worker counters into aggregate statistics.
func (s *Switch) Stats() WorkerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.base
	for _, c := range s.counters {
		c.foldInto(&t)
	}
	// The link-state snapshot comes straight off the ports (atomic loads; the
	// supervisor owns the transitions).
	for _, p := range s.ports {
		switch LinkState(p.link.Load()) {
		case LinkDown:
			t.PortsDown++
		case LinkFlapping:
			t.PortsFlapping++
		}
	}
	// Punt accounting lives in the rings themselves (single-writer mirrors),
	// so the fold needs no registration churn as workers come and go.
	for _, r := range s.punt {
		t.Punts += r.Pushed()
		t.PuntDrops += r.Drops()
	}
	return t
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

// BurstLatency folds the per-worker burst-duration histograms (nanoseconds
// per classifyBurst call) over live and retired workers.  All zero until
// SetLatencySampling(true).
func (s *Switch) BurstLatency() hist.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.latBase
	for _, c := range s.counters {
		c.lat.AddTo(&t)
	}
	return t
}

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

// PollOnce performs one run-to-completion iteration of the RunWorkers worker
// over all queues of the given ports: receive a burst from each, classify it
// (on the worker's registered handle when the datapath supports one), and
// transmit.  It returns the number of packets processed.  Passing nil polls
// every port.  The worker — queue 0's TX side, every RX queue, its own
// counters and handle — is built at the first call and kept, so its punt
// filter and scratch persist across calls.  PollOnce is a single-threaded
// convenience: one caller at a time, never beside RunWorkers; concurrent
// forwarding uses RunWorkers.
func (s *Switch) PollOnce(ports []*Port) int {
	if s.poll == nil {
		s.poll = s.newWorkerState(allQueues(s.queues), 0)
	}
	n := s.pollPorts(s.poll, ports)
	// Run to completion: a caller may stop polling at any point, so no
	// frame is left in the spill backlog — the final attempt happens now
	// and the remainder counts as drops.  The carried-across-polls
	// behaviour of the spill policy belongs to RunWorkers loops.
	if s.poll.spillPending > 0 {
		s.abandonSpill(s.poll)
	}
	return n
}

// pollPorts is one poll iteration over caller-owned worker state: for every
// port, drain a burst from each RX queue the worker owns, classify it, stage
// the outgoing frames, then flush the staging buffers with one TX burst per
// port and fold the iteration's tallies into the worker's counters.  The
// whole iteration runs inside the worker's epoch (when the datapath has
// one), takes no locks, and — after warm-up — performs no allocations.
func (s *Switch) pollPorts(ws *workerState, ports []*Port) int {
	if ports == nil {
		ports = s.ports
	}
	if ws.punt == nil && s.punt != nil {
		// Rings armed after this state was built: adopt the worker's ring
		// (one nil-check per poll, nothing on the per-packet path).
		ws.punt = s.punt[ws.txq]
	}
	if ws.puntFilter == nil && s.puntFilterSize > 0 {
		// Same lazy adoption for the punt-storm filter: a one-time
		// allocation per worker state, off the per-packet path.
		ws.puntFilter = make([]puntFilterSlot, s.puntFilterSize)
	}
	// The filter's recency clock: one increment per poll iteration, so a
	// window of N polls corresponds to roughly N bursts of headroom.
	ws.pollSeq++
	// The watchdog heartbeat: one counter bump per poll plus a store of the
	// port being polled (so a stall can be blamed), all single-writer on the
	// worker's own padded cache line.
	hb := ws.hb
	if hb != nil {
		hb.beats.Add(1)
	}
	if ws.worker != nil {
		ws.worker.Enter()
	}
	total := 0
	var tal stageTallies
	// One sampling-gate load per poll iteration; with sampling armed one
	// burst in latSampleEvery pays two clock reads and two atomic adds —
	// still zero-lock and zero-alloc, and <1% of the burst budget.
	sample := s.latSample.Load()
	for _, port := range ports {
		// The port supervisor parks failed ports Down; skipping them here is
		// the workers' entire involvement in the link-state machine (one
		// atomic load per port per poll; Flapping ports keep forwarding).
		if port.link.Load() == uint32(LinkDown) {
			continue
		}
		if hb != nil {
			hb.polling.Store(uint64(port.ID))
		}
		for _, q := range ws.queues {
			if q >= port.nq {
				continue
			}
			n := port.be.RxBurst(q, ws.frames)
			if n == 0 {
				continue
			}
			if sample && ws.latTick%latSampleEvery == 0 {
				ws.latTick++
				t0 := time.Now()
				s.classifyBurst(ws, port, n, &tal)
				ws.counters.lat.Observe(uint64(time.Since(t0)))
			} else {
				if sample {
					ws.latTick++
				}
				s.classifyBurst(ws, port, n, &tal)
			}
			total += n
		}
	}
	if hb != nil {
		hb.polling.Store(0)
	}
	// The epoch bracket covers only classification: the TX flush (which may
	// back off for a while under the block policy) and the counter folds
	// touch nothing but rings and worker-local memory, so exiting first
	// keeps flow-mod grace periods short even when TX is backed up.
	if ws.worker != nil {
		ws.worker.Exit()
	}
	if total > 0 || ws.spillPending > 0 {
		s.flushTx(ws, &tal)
		tal[cProcessed] = uint64(total)
		ws.counters.publish(&tal)
	}
	return total
}

// classifyBurst classifies one RX burst and stages its verdicts, wrapped in
// panic containment: a datapath panic (a poison frame tripping a parser or
// template bug) quarantines the burst's unstaged frames — counted, neither
// forwarded nor dropped — and the worker survives to poll the next queue.
// The containment is a method-value defer (open-coded, no allocation), so
// the steady-state burst path stays zero-lock and zero-alloc.
func (s *Switch) classifyBurst(ws *workerState, port *Port, n int, tal *stageTallies) {
	ws.staged = 0
	defer ws.containPanic(n)
	if ws.worker != nil {
		// Burst path: wrap the RX burst and classify it in one call on the
		// worker's own resources — zero-lock, since the worker's Enter
		// pinned the snapshot.
		for i := 0; i < n; i++ {
			ws.packets[i] = pkt.Packet{Data: ws.frames[i], InPort: port.ID}
		}
		ws.worker.ProcessBurst(ws.pkts[:n], ws.verdicts[:n])
		for i := 0; i < n; i++ {
			s.stage(ws, &ws.verdicts[i], ws.frames[i], port.ID, tal)
			ws.staged++
		}
	} else {
		for i := 0; i < n; i++ {
			ws.packets[0] = pkt.Packet{Data: ws.frames[i], InPort: port.ID}
			s.dp.Process(&ws.packets[0], &ws.verdicts[0])
			s.stage(ws, &ws.verdicts[0], ws.frames[i], port.ID, tal)
			ws.staged++
		}
	}
}

// containPanic is classifyBurst's deferred recovery: the poison frame and
// whatever of its burst had not completed staging are quarantined.  The
// worker's epoch bracket (Enter/Exit in pollPorts) stays balanced because
// the panic never escapes the bracket.
func (ws *workerState) containPanic(n int) {
	if r := recover(); r != nil {
		ws.counters.c[cPanics].Add(1)
		if q := n - ws.staged; q > 0 {
			ws.counters.c[cQuarantined].Add(uint64(q))
		}
	}
}

// stage records one verdict: forwarded frames are appended to the per-port
// TX staging buffers (flushed in bursts at the end of the poll iteration),
// punted frames are copied into the worker's slow-path punt ring (when one
// is armed), and the iteration-local tallies are bumped.  Forwarding and
// punting are independent dimensions of a verdict — "output:2,controller"
// both transmits and punts, counting once in each of forwarded and toCtrl —
// so this is a pair of tests, not a three-way switch.
//
// Punted packets additionally pass through the failure plane, none of which
// costs the pure forwarding path anything: under fail-secure the whole
// packet (including its forwarding half) is discarded, under fail-standalone
// the punt half is suppressed while forwarding proceeds, and in normal mode
// the punt-storm filter may withhold a repeat punt of a recently-punted
// microflow.  Every suppressed/filtered punt is counted, preserving
// Punts+PuntDrops+PuntSuppressed+PuntFiltered == ToCtrl.
func (s *Switch) stage(ws *workerState, v *openflow.Verdict, frame []byte, inPort uint32, tal *stageTallies) {
	fwd := v.Forwarded()
	punt := v.ToController
	var mode FailMode
	if punt {
		tal[cToCtrl]++
		mode = FailMode(s.failMode.Load())
		if mode == FailSecure {
			// Controller-dependent packet with no controller: discard it
			// outright, forwarding half included.
			tal[cPuntSuppressed]++
			tal[cDropped]++
			return
		}
	}
	if fwd {
		tal[cForwarded]++
		for _, out := range v.OutPorts {
			if out > 0 && int(out) <= len(ws.txStage) {
				ws.txStage[out-1] = append(ws.txStage[out-1], frame)
			}
		}
	}
	if punt {
		switch {
		case mode == FailStandalone:
			// Installed flows keep forwarding (handled above); the punt
			// half waits for the channel to come back.
			tal[cPuntSuppressed]++
		case ws.punt != nil:
			if ws.puntFilter != nil && ws.puntRepeats(frame, s.puntFilterWindow) {
				tal[cPuntFiltered]++
				break
			}
			// The ring copies the frame into its pre-allocated slot buffer
			// (drop-on-full, counted by the ring), so the recycled RX frame
			// can be reused — or transmitted above — immediately.
			ws.punt.Push(frame, inPort, v.PuntTable, v.PuntReason)
		}
	}
	if !fwd && !punt {
		tal[cDropped]++
	}
}

// puntRepeats consults and updates the worker's punt-storm filter: it
// reports true when this frame's microflow already punted within the last
// `window` polls.  A miss (first punt, expired entry, or a colliding hash
// evicting the previous occupant) records the flow and passes the punt.
// The hash is computed only for punted packets — by definition off the fast
// path — and the filter is worker-private, so this takes no locks and
// allocates nothing.
func (ws *workerState) puntRepeats(frame []byte, window uint64) bool {
	h := pkt.RSSHash(frame)
	slot := &ws.puntFilter[h&uint32(len(ws.puntFilter)-1)]
	if slot.hash == h && slot.seen != 0 && ws.pollSeq-slot.seen <= window {
		slot.seen = ws.pollSeq // a suppressed repeat keeps the entry fresh
		return true
	}
	slot.hash = h
	slot.seen = ws.pollSeq
	return false
}

// flushTx drains the worker's TX staging buffers (and, under the spill
// policy, its spill backlog), one EnqueueBurst per output port, preserving
// receive order within the worker's stream.  What happens when a TX ring is
// full is decided by the switch's TxPolicy; see txpolicy.go.  Retries and
// drops are tallied into tal.
func (s *Switch) flushTx(ws *workerState, tal *stageTallies) {
	pol := s.txPolicy
	retries, drops := &tal[cTxRetries], &tal[cTxDrops]
	for pi, staged := range ws.txStage {
		spill := ws.txSpill[pi]
		if len(staged) == 0 && len(spill) == 0 {
			continue
		}
		port := s.ports[pi]
		if pol == TxSpill {
			ws.txSpill[pi] = s.flushSpill(ws, port, spill, staged, retries, drops)
		} else {
			sent := port.txEnqueue(ws.txq, staged)
			if sent < len(staged) && pol == TxBlock {
				// Bounded backoff: re-attempt the remainder, pausing a
				// little longer each round, before giving up and
				// counting drops.
				for attempt := 1; attempt <= txRetryLimit && sent < len(staged); attempt++ {
					ws.txBackoff(attempt)
					*retries += uint64(len(staged) - sent)
					sent += port.txEnqueue(ws.txq, staged[sent:])
				}
			}
			if over := len(staged) - sent; over > 0 {
				*drops += uint64(over)
				port.countTxDrops(over)
			}
		}
		ws.txStage[pi] = ws.txStage[pi][:0]
	}
	ws.spillPending = 0
	if pol == TxSpill {
		for _, sp := range ws.txSpill {
			ws.spillPending += len(sp)
		}
	}
}

// idleBackoff is the workers' idle policy: a short pause-loop spin for the
// first empty polls (latency stays minimal when traffic is merely bursty),
// then cooperative yields so producers are not starved on small machines,
// then brief sleeps once the port set looks genuinely idle.
func (ws *workerState) idleBackoff(idle int) {
	switch {
	case idle < 8:
		x := ws.spin
		for i := 0; i < idle*16; i++ {
			x = x*2862933555777941757 + 3037000493
		}
		ws.spin = x
	case idle < 1024:
		runtime.Gosched()
	default:
		time.Sleep(20 * time.Microsecond)
	}
}

// RunWorkers starts one run-to-completion goroutine ("core") per worker and
// returns a stop function.  Worker w owns RX queue indices q ≡ w (mod
// workers) and TX queue w of every port, so a single hot port's RSS-spread
// traffic scales across all workers while every ring keeps one producer and
// one consumer.  numWorkers is clamped to the per-port queue count.  Each
// worker busy-polls its queues with an idle backoff until stopped.
func (s *Switch) RunWorkers(numWorkers int) (stop func()) {
	numWorkers = s.ClampWorkers(numWorkers)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < numWorkers; w++ {
		var queues []int
		for q := w; q < s.queues; q += numWorkers {
			queues = append(queues, q)
		}
		wg.Add(1)
		go func(queues []int, txq int) {
			defer wg.Done()
			ws := s.newWorkerState(queues, txq)
			defer s.retireCounters(ws.counters)
			if ws.worker != nil {
				defer s.wdp.UnregisterWorker(ws.worker)
			}
			ws.hb = s.registerHeartbeat()
			defer s.retireHeartbeat(ws.hb)
			// On shutdown, make one last attempt at any spill backlog,
			// then account what is still stuck as drops.
			defer s.abandonSpill(ws)
			idle := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				if s.pollPorts(ws, nil) == 0 {
					idle++
					ws.idleBackoff(idle)
				} else {
					idle = 0
				}
			}
		}(queues, w)
	}
	return func() {
		close(done)
		wg.Wait()
	}
}
