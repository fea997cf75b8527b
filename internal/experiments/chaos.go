package experiments

import (
	"fmt"
	"net"
	"sync"
	"time"

	"eswitch/internal/controller"
	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/faultinject"
	"eswitch/internal/ofp"
	"eswitch/internal/slowpath"
	"eswitch/internal/workload"
)

// This file is the chaos end of the failure plane: a harness that runs the
// complete reactive stack — compiled pipeline, dpdk substrate with punt
// rings, slow-path service, supervised OpenFlow channel, learning controller
// — with the CONTROLLER as the mortal party.  The switch side dials out
// through a controller.Supervisor, so the harness can kill the controller
// (close its listener and live connection), watch the switch degrade into
// its configured fail mode, revive the controller on the same address, and
// watch the supervisor reconnect and the learning loop reconverge.  All
// faults beyond kill/revive come from a seeded faultinject.Injector wired
// through the dialed connection and the agent's flow programmer.

// ChaosConfig parameterizes a ChaosHarness.
type ChaosConfig struct {
	// Hosts is the number of stations the learning controller must discover
	// (default 64), Flows the trace's active flow count (at least Hosts) and
	// NumPorts the switch port count (default 4).  Hosts must stay at or
	// below the punt-ring capacity so a full discovery sweep cannot drop
	// learnable punts.
	Hosts    int
	Flows    int
	NumPorts int
	// PuntRing is the per-worker punt ring size (default 1024, rounded up to
	// a power of two; one slot fewer is usable).
	PuntRing int
	// PuntRate caps PacketIn delivery in pps (0 = unlimited).
	PuntRate int
	// FailMode is the degraded mode entered when the control channel dies
	// (default FailStandalone).
	FailMode dpdk.FailMode
	// FlowCache sizes the per-worker microflow cache (0 = off).
	FlowCache int
	// PuntFilter/PuntFilterWindow arm the punt-storm filter (0 = off).
	PuntFilter       int
	PuntFilterWindow int
	// EchoInterval/EchoTimeout drive the supervisor's liveness probe
	// (defaults 25ms/300ms — probe often, but give the verdict real slack:
	// the controller's read loop answers echoes behind PacketIn processing,
	// and a race-instrumented discovery sweep can legitimately hold it busy
	// for tens of milliseconds; a twitchy verdict here kills healthy
	// sessions mid-learning and makes every chaos test flaky).
	EchoInterval time.Duration
	EchoTimeout  time.Duration
	// BackoffMin/BackoffMax bound the redial backoff (defaults 5ms/50ms —
	// test-scale); Seed makes the jitter (and the injector, when the
	// harness creates one) deterministic.
	BackoffMin time.Duration
	BackoffMax time.Duration
	Seed       int64
	// PortScanInterval is the port supervisor's scan cadence (default 1ms)
	// and PortBackoffMin/PortBackoffMax bound its reopen backoff (defaults
	// 2ms/20ms — test-scale).  The harness records the exact supervisor
	// config in PortCfg so tests can compare recorded reopen delays against
	// dpdk.PortBackoffSchedule.
	PortScanInterval time.Duration
	PortBackoffMin   time.Duration
	PortBackoffMax   time.Duration
	// Injector, when non-nil, is threaded through the dialed control
	// connection (faultinject.Conn points; the slow path's PacketIns are
	// "conn.write.10") and the agent's flow programmer ("flowmod.add").
	Injector *faultinject.Injector
}

// ChaosHarness owns the running stack.  The switch side (SW, Agent, Sup) is
// immortal; the controller side (listener + Learner attachment) dies on
// KillController and returns on ReviveController.
type ChaosHarness struct {
	UC      *workload.UseCase
	DP      *core.Datapath
	SW      *dpdk.Switch
	Rings   []*slowpath.Ring
	Agent   *controller.Agent
	Sup     *controller.Supervisor
	Learner *controller.LearningSwitch
	// PSup is the port fault domain's supervisor and PortCfg the exact
	// config it runs under (pass PortCfg to dpdk.PortBackoffSchedule for
	// the reopen-delay oracle).
	PSup    *dpdk.PortSupervisor
	PortCfg dpdk.PortSupervisorConfig

	cfg     ChaosConfig
	frames  [][]byte
	inPorts []uint32
	addr    string
	inj     *faultinject.Injector
	pbs     []*faultinject.FaultBackend
	sess    *controller.Session

	mu   sync.Mutex
	ln   net.Listener
	conn net.Conn

	pstMu      sync.Mutex
	portStats  []ofp.PortStatus
	linkEvents []dpdk.PortLinkEvent

	// violation is the first counter-invariant violation a harness
	// observation found (checkInvariants); only the test's goroutine, the
	// one driving PollDrain and WaitQuiet, touches it.
	violation error
}

// NewChaosHarness builds the stack, starts the controller listener and the
// switch-side supervisor, and returns once the first session is up.
func NewChaosHarness(cfg ChaosConfig) (*ChaosHarness, error) {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 64
	}
	if cfg.Flows < cfg.Hosts {
		cfg.Flows = cfg.Hosts
	}
	if cfg.NumPorts <= 0 {
		cfg.NumPorts = 4
	}
	if cfg.PuntRing <= 0 {
		cfg.PuntRing = 1024
	}
	if cfg.FailMode == dpdk.FailNormal {
		cfg.FailMode = dpdk.FailStandalone
	}
	if cfg.EchoInterval <= 0 {
		cfg.EchoInterval = 25 * time.Millisecond
	}
	if cfg.EchoTimeout <= 0 {
		cfg.EchoTimeout = 300 * time.Millisecond
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 5 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 50 * time.Millisecond
	}
	if cfg.PortScanInterval <= 0 {
		cfg.PortScanInterval = time.Millisecond
	}
	if cfg.PortBackoffMin <= 0 {
		cfg.PortBackoffMin = 2 * time.Millisecond
	}
	if cfg.PortBackoffMax <= 0 {
		cfg.PortBackoffMax = 20 * time.Millisecond
	}

	h := &ChaosHarness{cfg: cfg}
	h.UC = workload.L2LearningUseCase(cfg.Hosts, cfg.NumPorts)
	opts := core.DefaultOptions()
	opts.FlowCache = cfg.FlowCache
	dp, err := core.Compile(h.UC.Pipeline, opts)
	if err != nil {
		return nil, err
	}
	h.DP = dp
	// Every port's rings sit behind a faultinject wrapper so chaos tests can
	// cut (KillPort) and restore (RevivePort) individual ports mid-traffic;
	// the port supervisor sees the cut as a fatal queue error and the
	// restoration as a reopen finally succeeding.
	h.inj = cfg.Injector
	if h.inj == nil {
		h.inj = faultinject.New(cfg.Seed)
	}
	backends := make([]dpdk.PortBackend, cfg.NumPorts)
	for i := range backends {
		fb := faultinject.Backend(dpdk.NewRingBackend(8192, dpdk.DefaultQueues), h.inj)
		h.pbs = append(h.pbs, fb)
		backends[i] = fb
	}
	h.SW = dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{Backends: backends})
	h.Rings, err = h.SW.ArmPuntRings(cfg.PuntRing, 0)
	if err != nil {
		return nil, err
	}
	if cfg.Hosts > h.Rings[0].Capacity() {
		return nil, fmt.Errorf("chaos: %d hosts exceed the %d-slot punt ring (a discovery sweep would drop learnable punts)",
			cfg.Hosts, h.Rings[0].Capacity())
	}
	if cfg.PuntFilter > 0 {
		h.SW.SetPuntFilter(cfg.PuntFilter, cfg.PuntFilterWindow)
	}
	// The switch starts with no controller: degraded from the first packet.
	h.SW.SetFailMode(cfg.FailMode)

	trace := h.UC.Trace(cfg.Flows)
	h.frames = make([][]byte, cfg.Flows)
	h.inPorts = make([]uint32, cfg.Flows)
	for i := range h.frames {
		h.frames[i], h.inPorts[i] = trace.Frame(i)
	}

	var programmer controller.FlowProgrammer = dp
	if cfg.Injector != nil {
		programmer = faultinject.WrapProgrammer(dp, cfg.Injector)
	}
	h.Agent = controller.NewAgent(programmer)
	h.sess = &controller.Session{
		Switch:   h.SW,
		Agent:    h.Agent,
		Slowpath: slowpath.Config{Rings: h.Rings, RatePPS: cfg.PuntRate, Window: 256},
		FailMode: cfg.FailMode,
	}
	h.Learner = &controller.LearningSwitch{Priority: 100}

	// Controller side: listen, remember the concrete address so revival
	// rebinds the exact same endpoint the supervisor keeps dialing.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.addr = ln.Addr().String()
	h.mu.Lock()
	h.ln = ln
	h.mu.Unlock()
	go h.acceptLoop(ln)

	h.Sup, err = controller.NewSupervisor(controller.SupervisorConfig{
		Dial:         h.dial,
		Agent:        h.Agent,
		EchoInterval: cfg.EchoInterval,
		EchoTimeout:  cfg.EchoTimeout,
		BackoffMin:   cfg.BackoffMin,
		BackoffMax:   cfg.BackoffMax,
		Seed:         cfg.Seed,
		OnUp:         h.sess.OnUp,
		OnDown:       h.sess.OnDown,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	h.PortCfg = dpdk.PortSupervisorConfig{
		Interval:     cfg.PortScanInterval,
		BackoffMin:   cfg.PortBackoffMin,
		BackoffMax:   cfg.PortBackoffMax,
		Seed:         cfg.Seed,
		OnTransition: h.onLink,
	}
	h.PSup = h.SW.StartPortSupervisor(h.PortCfg)
	h.Sup.Start()
	if err := h.WaitState(controller.SupervisorUp, 5*time.Second); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// dial is the supervisor's connect hook (with fault points when configured).
func (h *ChaosHarness) dial() (net.Conn, error) {
	conn, err := net.Dial("tcp", h.addr)
	if err != nil {
		return nil, err
	}
	if h.cfg.Injector != nil {
		conn = faultinject.Conn(conn, h.cfg.Injector)
	}
	return conn, nil
}

// onLink records every link-state transition and announces it to the
// current controller session (Session.PortStatus).
func (h *ChaosHarness) onLink(ev dpdk.PortLinkEvent) {
	h.pstMu.Lock()
	h.linkEvents = append(h.linkEvents, ev)
	h.pstMu.Unlock()
	h.sess.PortStatus(ev)
}

// Service returns the slow-path service of the latest session (nil before
// the first session).
func (h *ChaosHarness) Service() *slowpath.Service { return h.sess.Service() }

// acceptLoop attaches the persistent learning controller to every accepted
// connection (sessions are sequential: the supervisor holds one channel at a
// time) and pumps its read loop until the connection dies.
func (h *ChaosHarness) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener killed
		}
		h.mu.Lock()
		h.conn = conn
		h.mu.Unlock()
		ctrl := controller.NewController(conn)
		ctrl.PortStatusHandler = func(ps ofp.PortStatus) {
			h.pstMu.Lock()
			h.portStats = append(h.portStats, ps)
			h.pstMu.Unlock()
		}
		h.Learner.Attach(ctrl)
		if err := ctrl.Hello(); err != nil {
			conn.Close()
			continue
		}
		go func() {
			_ = ctrl.Run()
			conn.Close()
		}()
	}
}

// KillController kills the controller: the listener closes (dials fail) and
// the live control connection is severed (the session dies).  The switch
// side survives and degrades.
func (h *ChaosHarness) KillController() {
	h.mu.Lock()
	ln, conn := h.ln, h.conn
	h.ln, h.conn = nil, nil
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if conn != nil {
		conn.Close()
	}
}

// ReviveController rebinds the controller's original address and resumes
// accepting; the supervisor's next redial succeeds and the learning loop
// resynchronizes (Attach clears the installed-flow ledger, keeps the MACs).
func (h *ChaosHarness) ReviveController() error {
	ln, err := net.Listen("tcp", h.addr)
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.ln = ln
	h.mu.Unlock()
	go h.acceptLoop(ln)
	return nil
}

// Close tears the whole stack down.
func (h *ChaosHarness) Close() {
	h.PSup.Stop()
	h.Sup.Stop()
	h.KillController()
}

// FaultBackend returns port id's fault-injection wrapper (nil for an unknown
// port).
func (h *ChaosHarness) FaultBackend(id uint32) *faultinject.FaultBackend {
	if id < 1 || int(id) > len(h.pbs) {
		return nil
	}
	return h.pbs[id-1]
}

// KillPort cuts port id's backend mid-traffic: every queue reports err
// (faultinject.ErrKilled when nil) as fatal, injection and bursts fail, and
// reopen attempts burn backoff delays until RevivePort.
func (h *ChaosHarness) KillPort(id uint32, err error) error {
	fb := h.FaultBackend(id)
	if fb == nil {
		return fmt.Errorf("chaos: no port %d", id)
	}
	fb.Kill(err)
	return nil
}

// RevivePort lifts a KillPort: the supervisor's next reopen attempt succeeds
// and brings the link back.
func (h *ChaosHarness) RevivePort(id uint32) error {
	fb := h.FaultBackend(id)
	if fb == nil {
		return fmt.Errorf("chaos: no port %d", id)
	}
	fb.Revive()
	return nil
}

// PortStatuses returns every OFPT_PORT_STATUS the controller side received,
// in arrival order.
func (h *ChaosHarness) PortStatuses() []ofp.PortStatus {
	h.pstMu.Lock()
	defer h.pstMu.Unlock()
	return append([]ofp.PortStatus(nil), h.portStats...)
}

// LinkEvents returns every link-state transition the port supervisor made,
// in order.
func (h *ChaosHarness) LinkEvents() []dpdk.PortLinkEvent {
	h.pstMu.Lock()
	defer h.pstMu.Unlock()
	return append([]dpdk.PortLinkEvent(nil), h.linkEvents...)
}

// WaitLink blocks until port id's link state reaches want.
func (h *ChaosHarness) WaitLink(id uint32, want dpdk.LinkState, timeout time.Duration) error {
	port, err := h.SW.Port(id)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for port.LinkState() != want {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: port %d stuck %v (want %v) after %v", id, port.LinkState(), want, timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// WaitPortStatus blocks until the controller side has received a PortStatus
// matching pred.
func (h *ChaosHarness) WaitPortStatus(pred func(ofp.PortStatus) bool, timeout time.Duration) (ofp.PortStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		for _, ps := range h.PortStatuses() {
			if pred(ps) {
				return ps, nil
			}
		}
		if time.Now().After(deadline) {
			return ofp.PortStatus{}, fmt.Errorf("chaos: no matching PortStatus after %v (got %d)", timeout, len(h.PortStatuses()))
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// InjectAll injects one full sweep over the flow set, returning how many
// frames the RX rings accepted.
func (h *ChaosHarness) InjectAll() int {
	ok := 0
	for i := range h.frames {
		port, err := h.SW.Port(h.inPorts[i])
		if err != nil {
			continue
		}
		if port.InjectOn(dpdk.AutoQueue, h.frames[i]) {
			ok++
		}
	}
	return ok
}

// InjectStorm injects `times` copies of an unlearnable frame (destination
// outside the host set): every copy punts — or is suppressed/filtered under
// a degraded mode or storm filter — regardless of learning progress.
func (h *ChaosHarness) InjectStorm(times int) int {
	frame := append([]byte(nil), h.frames[0]...)
	copy(frame[0:6], []byte{0x02, 0xde, 0xad, 0xbe, 0xef, 0x99})
	port, err := h.SW.Port(h.inPorts[0])
	if err != nil {
		return 0
	}
	ok := 0
	for k := 0; k < times; k++ {
		if port.InjectOn(dpdk.AutoQueue, frame) {
			ok++
		}
	}
	return ok
}

// PollDrain processes the RX backlog and drains the TX sinks, then checks
// the counter invariants with the worker at rest (checkInvariants).
func (h *ChaosHarness) PollDrain() {
	for h.SW.PollOnce(nil) > 0 {
	}
	for _, p := range h.SW.Ports() {
		p.DrainTx()
	}
	h.checkInvariants()
}

// checkInvariants checks the substrate's and the verdict cache's counter
// identities (WorkerStats.CheckInvariants, FlowCacheStats.CheckInvariants)
// and returns the first violation any call has found, nil while none has.
// Call it only with the workers at rest: a mid-poll fold may be torn.
func (h *ChaosHarness) checkInvariants() error {
	if h.violation == nil {
		st := h.SW.Stats()
		err := st.CheckInvariants(true)
		if err == nil {
			// output:TABLE PacketOuts probe the cache through Process
			// without a worker receiving them.
			err = h.DP.FlowCacheStats().CheckInvariants(st.Processed+h.SW.Reinjected(), st.Panics)
		}
		h.violation = err
	}
	return h.violation
}

// WaitState blocks until the supervisor reaches the given state.
func (h *ChaosHarness) WaitState(s controller.SupervisorState, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for h.Sup.State() != s {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: supervisor stuck in %v (want %v) after %v", h.Sup.State(), s, timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// WaitSessions blocks until the supervisor has established n sessions.
func (h *ChaosHarness) WaitSessions(n uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for h.Sup.Sessions() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: %d sessions after %v (want %d)", h.Sup.Sessions(), timeout, n)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// ringsEmpty reports whether every punt ring is drained.
func (h *ChaosHarness) ringsEmpty() bool {
	for _, r := range h.Rings {
		if r.Len() > 0 {
			return false
		}
	}
	return true
}

// WaitQuiet blocks until the whole loop is stable: rings empty and the
// punt/PacketIn/PacketOut counters unchanged across several consecutive
// checks.  It never compares absolute counters across subsystems — the
// slow-path service (and its delivered count) is recreated per session, so
// only stability is meaningful here.  Once the loop is quiet it returns the
// first counter-invariant violation any observation found.
func (h *ChaosHarness) WaitQuiet(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stable := 0
	var last [3]uint64
	for {
		st := h.SW.Stats()
		cur := [3]uint64{st.ToCtrl, h.Learner.PacketIns(), h.Agent.PacketOuts()}
		if h.ringsEmpty() && cur == last {
			stable++
			if stable >= 5 {
				return h.checkInvariants()
			}
		} else {
			stable = 0
		}
		last = cur
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: loop not quiet after %v (toCtrl %d, packetIns %d, packetOuts %d)",
				timeout, cur[0], cur[1], cur[2])
		}
		time.Sleep(time.Millisecond)
	}
}

// Converge repeats full-sweep passes until one generates no new punt
// verdicts, returning how many passes it took, or the first error WaitQuiet
// reports (a counter-invariant violation among them).  Call it with the
// controller alive; a full sweep fits the punt ring (enforced at
// construction), so every host is discovered.
func (h *ChaosHarness) Converge(maxPasses int, quiet time.Duration) (int, error) {
	for pass := 1; pass <= maxPasses; pass++ {
		before := h.SW.Stats().ToCtrl
		h.InjectAll()
		h.PollDrain()
		if err := h.WaitQuiet(quiet); err != nil {
			return pass, err
		}
		if h.SW.Stats().ToCtrl == before {
			return pass, nil
		}
	}
	return maxPasses, fmt.Errorf("chaos: punts did not converge to zero in %d passes", maxPasses)
}

// MeasureForwarding pumps `packets` frames through the switch and returns
// the deltas of the forwarded / punt-verdict counters.
func (h *ChaosHarness) MeasureForwarding(packets int) (forwarded, toCtrl uint64) {
	before := h.SW.Stats()
	done := 0
	for done < packets {
		for i := 0; i < len(h.frames) && done < packets; i++ {
			port, err := h.SW.Port(h.inPorts[i])
			if err != nil {
				continue
			}
			if port.InjectOn(dpdk.AutoQueue, h.frames[i]) {
				done++
			}
		}
		h.PollDrain()
	}
	after := h.SW.Stats()
	return after.Forwarded - before.Forwarded, after.ToCtrl - before.ToCtrl
}
