package experiments

import (
	"fmt"
	"net"
	"time"

	"eswitch/internal/controller"
	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/ofp"
	"eswitch/internal/slowpath"
	"eswitch/internal/workload"
)

// This file measures the slow-path subsystem end to end: the closed reactive
// control loop (per-worker punt rings → rate-limited PacketIn delivery over
// a real TCP OpenFlow channel → L2 learning controller → FlowMod + PacketOut
// → fast path) and the figure it supports, FlowSetupRate — the repository's
// companion to Fig. 17/18 for the *reactive* installation path: how fast a
// learning controller can move an unknown workload onto the fast path, and
// what forwarding costs once it has.

// SlowPathConfig parameterizes the harness.
type SlowPathConfig struct {
	// Hosts is the number of stations the learning controller must discover.
	Hosts int
	// Flows is the trace's active flow count (>= Hosts; defaults to Hosts).
	Flows int
	// NumPorts is the switch port count (default 4).
	NumPorts int
	// PuntRing is the per-worker punt ring capacity (slowpath default when 0).
	PuntRing int
	// PuntRate caps PacketIn delivery in pps (0 = unlimited).
	PuntRate int
	// FlowCache sizes the per-worker microflow verdict cache (0 = off).
	FlowCache int
	// Window is the slow path's buffer-id window (default 256).
	Window int
}

// SlowPathHarness wires the complete reactive stack: a compiled (initially
// EMPTY, miss-punts-to-controller) L2 pipeline over the dpdk substrate with
// punt rings armed, a slow-path service delivering PacketIns over a real
// loopback TCP OpenFlow channel, the switch-side agent applying the
// controller's FlowMods/PacketOuts, and a reactive L2 learning controller.
type SlowPathHarness struct {
	UC      *workload.UseCase
	DP      *core.Datapath
	SW      *dpdk.Switch
	Rings   []*slowpath.Ring
	Agent   *controller.Agent
	Service *slowpath.Service
	Learner *controller.LearningSwitch

	frames  [][]byte
	inPorts []uint32

	ln        net.Listener
	conn      net.Conn
	stopSvc   chan struct{}
	agentDone chan struct{}
	ctlDone   chan struct{}
}

// NewSlowPathHarness builds and connects the whole loop; Close releases it.
func NewSlowPathHarness(cfg SlowPathConfig) (*SlowPathHarness, error) {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 256
	}
	if cfg.Flows < cfg.Hosts {
		cfg.Flows = cfg.Hosts
	}
	if cfg.NumPorts <= 0 {
		cfg.NumPorts = 4
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	h := &SlowPathHarness{
		stopSvc:   make(chan struct{}),
		agentDone: make(chan struct{}),
		ctlDone:   make(chan struct{}),
	}
	h.UC = workload.L2LearningUseCase(cfg.Hosts, cfg.NumPorts)
	opts := core.DefaultOptions()
	opts.FlowCache = cfg.FlowCache
	dp, err := core.Compile(h.UC.Pipeline, opts)
	if err != nil {
		return nil, err
	}
	h.DP = dp
	h.SW = dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: cfg.NumPorts, RingSize: 8192, Queues: dpdk.DefaultQueues})
	h.Rings, err = h.SW.ArmPuntRings(cfg.PuntRing, 0)
	if err != nil {
		return nil, err
	}
	h.Agent = controller.NewAgent(dp)

	trace := h.UC.Trace(cfg.Flows)
	h.frames = make([][]byte, cfg.Flows)
	h.inPorts = make([]uint32, cfg.Flows)
	for i := range h.frames {
		h.frames[i], h.inPorts[i] = trace.Frame(i)
	}

	h.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ready := make(chan error, 1)
	go func() {
		conn, err := h.ln.Accept()
		if err != nil {
			ready <- err
			close(h.agentDone)
			return
		}
		rw, out := controller.SharedChannel(conn)
		svc, err := slowpath.NewService(slowpath.Config{
			Rings:    h.Rings,
			RatePPS:  cfg.PuntRate,
			Window:   cfg.Window,
			Executor: h.SW,
			Send: func(pi ofp.PacketIn) error {
				return ofp.WriteMessage(out, ofp.Message{Type: ofp.TypePacketIn, Body: ofp.EncodePacketIn(pi)})
			},
		})
		if err != nil {
			ready <- err
			conn.Close()
			close(h.agentDone)
			return
		}
		h.Service = svc
		h.Agent.PacketOutHandler = svc.HandlePacketOut
		ready <- nil
		go svc.Run(h.stopSvc)
		_ = h.Agent.Serve(rw) // returns when Close tears the connection down
		close(h.agentDone)
	}()

	ctrl, conn, err := controller.Dial(h.ln.Addr().String())
	if err != nil {
		h.ln.Close()
		return nil, err
	}
	h.conn = conn
	if err := <-ready; err != nil {
		conn.Close()
		h.ln.Close()
		return nil, err
	}
	h.Learner = controller.NewLearningSwitch(ctrl)
	go func() {
		h.Learner.Run()
		close(h.ctlDone)
	}()
	return h, nil
}

// Close tears the loop down: controller connection, service, listener.
func (h *SlowPathHarness) Close() {
	h.conn.Close()
	<-h.ctlDone
	<-h.agentDone
	close(h.stopSvc)
	h.ln.Close()
}

// InjectAll injects every flow of the trace once (first packet of each flow
// on a cold switch), returning how many frames were accepted.
func (h *SlowPathHarness) InjectAll() int { return h.InjectRotated(0) }

// InjectRotated is InjectAll starting the sweep at flow index `start` (mod
// the flow count).  Rotating the origin between passes mimics the arrival
// interleaving of real traffic; under a deliberately tiny punt ring it keeps
// one fixed prefix of the sweep from monopolizing the ring every pass.
func (h *SlowPathHarness) InjectRotated(start int) int {
	return h.injectRange(start, len(h.frames))
}

// InjectStorm injects `times` copies of one frame whose destination MAC lies
// outside the host set: the learning controller floods it and installs
// nothing, so every single copy punts regardless of learning progress — a
// deterministic punt storm for overflow and storm-filter tests.
func (h *SlowPathHarness) InjectStorm(times int) int {
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

// injectRange injects n flows starting at index start (mod the flow count).
func (h *SlowPathHarness) injectRange(start, n int) int {
	ok := 0
	for k := 0; k < n; k++ {
		i := (start + k) % len(h.frames)
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

// PollDrain runs PollOnce until the RX backlog is gone, draining TX sinks.
func (h *SlowPathHarness) PollDrain() {
	for h.SW.PollOnce(nil) > 0 {
	}
	for _, p := range h.SW.Ports() {
		p.DrainTx()
	}
}

// totalPushed sums the rings' enqueued-punt counters.
func (h *SlowPathHarness) totalPushed() uint64 {
	var n uint64
	for _, r := range h.Rings {
		n += r.Pushed()
	}
	return n
}

// ringsEmpty reports whether every punt ring is drained.
func (h *SlowPathHarness) ringsEmpty() bool {
	for _, r := range h.Rings {
		if r.Len() > 0 {
			return false
		}
	}
	return true
}

// WaitQuiet blocks until the control loop is idle: every punted packet has
// been delivered, handled by the controller, and the controller's PacketOut
// replies (which, per connection ordering, follow its FlowMods) have been
// executed by the agent.
func (h *SlowPathHarness) WaitQuiet(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pushed := h.totalPushed()
		delivered := h.Service.Delivered() + h.Service.SendErrors()
		if h.ringsEmpty() && delivered == pushed && h.Agent.PacketOuts() == h.Learner.PacketIns() &&
			h.Learner.PacketIns() == h.Service.Delivered() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("slowpath harness: control loop not quiet after %s (pushed %d delivered %d handled %d packet-outs %d)",
				timeout, pushed, delivered, h.Learner.PacketIns(), h.Agent.PacketOuts())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Converge repeats inject-all passes (rotating the sweep origin, see
// InjectRotated) until one full pass generates zero punts, returning how
// many passes it took.
func (h *SlowPathHarness) Converge(maxPasses int, quiet time.Duration) (int, error) {
	for pass := 1; pass <= maxPasses; pass++ {
		before := h.SW.Stats()
		h.InjectRotated((pass - 1) * 7)
		h.PollDrain()
		if err := h.WaitQuiet(quiet); err != nil {
			return pass, err
		}
		after := h.SW.Stats()
		if after.ToCtrl == before.ToCtrl {
			return pass, nil
		}
	}
	return maxPasses, fmt.Errorf("slowpath harness: punts did not converge to zero in %d passes", maxPasses)
}

// MeasureForwarding pumps `packets` frames through the (presumably
// converged) switch and returns the wall-clock rate plus how many of them
// still punted.
func (h *SlowPathHarness) MeasureForwarding(packets int) (mpps float64, punts uint64) {
	before := h.SW.Stats()
	start := time.Now()
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
	elapsed := time.Since(start)
	after := h.SW.Stats()
	return float64(done) / elapsed.Seconds() / 1e6, after.ToCtrl - before.ToCtrl
}

// FlowSetupRate regenerates the reactive flow-setup figure: for a sweep of
// station counts, an L2 learning controller attached over a real TCP
// OpenFlow channel converges an initially-empty pipeline, and the row
// reports the reactive flow-setup rate (learned flows per second of
// convergence wall time), the PacketIn/FlowMod traffic it took, the punt
// accounting invariant, and the post-convergence fast-path rate.
func FlowSetupRate(cfg Config) Result {
	sweep := []int{64, 256, 1024}
	if cfg.Quick {
		sweep = []int{32, 128}
	}
	res := Result{
		ID:     "Flow setup",
		Title:  "reactive L2 learning over the slow path (punt rings -> TCP PacketIn -> FlowMod+PacketOut)",
		Header: []string{"hosts", "setups/s", "passes", "PacketIns", "FlowMods", "ring drops", "post-punt", "post Mpps"},
	}
	for _, hosts := range sweep {
		h, err := NewSlowPathHarness(SlowPathConfig{Hosts: hosts})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		passes, err := h.Converge(64, 10*time.Second)
		if err != nil {
			panic(err)
		}
		setupTime := time.Since(start)
		packets := cfg.packets(hosts)
		mpps, postPunts := h.MeasureForwarding(packets)
		st := h.SW.Stats()
		res.Rows = append(res.Rows, []string{
			fmtInt(hosts),
			fmt.Sprintf("%.0f", float64(h.Learner.FlowMods())/setupTime.Seconds()),
			fmtInt(passes),
			fmtInt(int(h.Service.Delivered())),
			fmtInt(int(h.Learner.FlowMods())),
			fmtInt(int(st.PuntDrops)),
			fmtInt(int(postPunts)),
			fmtF(mpps),
		})
		h.Close()
	}
	res.Notes = append(res.Notes,
		"setups/s = learned flows / wall-clock convergence time, including TCP framing both ways and the switch-side FlowMod application;",
		"  delivered PacketIns + ring drops == punted packets (drop-on-full rings keep the fast path decoupled);",
		"  post-convergence traffic forwards entirely on the fast path (post-punt == 0) — the learn-then-fast-path story of the paper's reactive use cases")
	return res
}
