package eswitch

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"eswitch/internal/controller"
	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/faultinject"
	"eswitch/internal/ofp"
	"eswitch/internal/openflow"
	"eswitch/internal/slowpath"
	"eswitch/internal/workload"
)

// These tests drive the switch side of eswitchd -listen: a
// controller.Supervisor that takes its controllers from a listener (Dial is
// the listener's Accept) over controller.Session's hooks, wired as the daemon
// wires them.  The controllers dial in.

// listen starts a supervisor accepting controllers on a loopback listener
// and returns the address to dial.  Cleanup closes the listener before Stop,
// which waits for the pending Accept.
func listen(t *testing.T, cfg controller.SupervisorConfig) (*controller.Supervisor, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dial = ln.Accept
	sup, err := controller.NewSupervisor(cfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	sup.Start()
	t.Cleanup(func() {
		ln.Close()
		sup.Stop()
	})
	return sup, ln.Addr().String()
}

// waitUntil polls cond until it holds, failing the test after timeout.
func waitUntil(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached after %v", what, timeout)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// pollDrain forwards the switch's RX backlog and drains its TX sinks.
func pollDrain(sw *dpdk.Switch) {
	for sw.PollOnce(nil) > 0 {
	}
	for _, p := range sw.Ports() {
		p.DrainTx()
	}
}

// withMACs returns a copy of frame with its destination and source MACs
// replaced.
func withMACs(frame []byte, dst, src uint64) []byte {
	f := append([]byte(nil), frame...)
	for i := 0; i < 6; i++ {
		f[5-i] = byte(dst >> (8 * i))
		f[11-i] = byte(src >> (8 * i))
	}
	return f
}

// TestListenSessionEndToEnd runs the daemon's passive session over the
// reactive L2-learning stack: a learning controller dials in and converges
// the table, a sweeper expiry reaches it as a FlowRemoved with the entry's
// counters, a killed port reaches it as a PortStatus naming the error, and
// once its EchoReplies are black-holed the switch drops the session within
// the liveness bound, enters its fail mode, and serves the next controller
// that dials in.
func TestListenSessionEndToEnd(t *testing.T) {
	const (
		hosts        = 32
		numPorts     = 4
		victim       = 3
		echoInterval = 25 * time.Millisecond
		echoTimeout  = 300 * time.Millisecond
		// slack is the scheduling allowance on the liveness bound: the
		// probe tick, the close and the teardown run on a loaded
		// (race-instrumented) scheduler.
		slack = 100 * time.Millisecond
	)
	uc := workload.L2LearningUseCase(hosts, numPorts)
	opts := core.DefaultOptions()
	opts.UpdateCounters = true // FlowRemoved carries the entry's counters
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		t.Fatal(err)
	}
	portInj := faultinject.New(1)
	fbs := make([]*faultinject.FaultBackend, numPorts)
	backends := make([]dpdk.PortBackend, numPorts)
	for i := range backends {
		fbs[i] = faultinject.Backend(dpdk.NewRingBackend(4096, dpdk.DefaultQueues), portInj)
		backends[i] = fbs[i]
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{Backends: backends})
	t.Cleanup(func() { sw.Close() })
	rings, err := sw.ArmPuntRings(1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetFailMode(dpdk.FailStandalone) // no controller yet

	agent := controller.NewAgent(dp)
	sess := &controller.Session{
		Switch:   sw,
		Agent:    agent,
		Slowpath: slowpath.Config{Rings: rings, Window: 256},
		FailMode: dpdk.FailStandalone,
	}
	psup := sw.StartPortSupervisor(dpdk.PortSupervisorConfig{
		Interval:     time.Millisecond,
		BackoffMin:   2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		OnTransition: sess.PortStatus,
	})
	t.Cleanup(psup.Stop)
	now := time.Unix(5000, 0)
	sweeper := core.NewSweeper(dp, core.SweeperConfig{
		Now:       func() time.Time { return now },
		OnRemoved: sess.FlowRemoved,
	})
	sup, addr := listen(t, controller.SupervisorConfig{
		Agent:        agent,
		EchoInterval: echoInterval,
		EchoTimeout:  echoTimeout,
		OnUp:         sess.OnUp,
		OnDown:       sess.OnDown,
	})

	// Controller 1 dials in through a connection whose writes it can fault.
	ctlInj := faultinject.New(2)
	conn1, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	ctrl1 := controller.NewController(faultinject.Conn(conn1, ctlInj))
	var mu sync.Mutex
	var removed []ofp.FlowRemoved
	var statuses []ofp.PortStatus
	ctrl1.FlowRemovedHandler = func(fr ofp.FlowRemoved) {
		mu.Lock()
		removed = append(removed, fr)
		mu.Unlock()
	}
	ctrl1.PortStatusHandler = func(ps ofp.PortStatus) {
		mu.Lock()
		statuses = append(statuses, ps)
		mu.Unlock()
	}
	learner := controller.NewLearningSwitch(ctrl1)
	if err := ctrl1.Hello(); err != nil {
		t.Fatal(err)
	}

	// Before the learning loop runs, the controller installs one
	// self-expiring flow for a station pair outside the host set.
	trace := uc.Trace(hosts)
	frames := make([][]byte, hosts)
	inPorts := make([]uint32, hosts)
	for i := range frames {
		frames[i], inPorts[i] = trace.Frame(i)
	}
	const timedDst, timedSrc = 0x025e55000002, 0x025e55000001
	timed := withMACs(frames[0], timedDst, timedSrc)
	timedMatch := openflow.NewMatch().Set(openflow.FieldEthSrc, timedSrc).Set(openflow.FieldEthDst, timedDst)
	if err := ctrl1.InstallFlowLifetime(0, 200, timedMatch, openflow.Apply(openflow.Output(2)), 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctrl1.Barrier(); err != nil {
		t.Fatal(err)
	}
	if sup.Sessions() != 1 || sw.FailMode() != dpdk.FailNormal {
		t.Fatalf("session up: %d sessions, fail mode %v (want 1, normal)", sup.Sessions(), sw.FailMode())
	}
	run1 := make(chan error, 1)
	go func() { run1 <- ctrl1.Run() }()

	// Learning converges: sweep the hosts until a sweep punts nothing.  A
	// sweep is settled once the service delivered every queued punt and the
	// agent applied the PacketOut (and before it any FlowMod) answering each.
	settled := func() bool {
		svc := sess.Service()
		n := learner.PacketIns()
		return svc.Delivered() == sw.Stats().Punts && n == svc.Delivered() && agent.PacketOuts() == n
	}
	passes := 0
	for {
		passes++
		if passes > 32 {
			t.Fatalf("learning did not converge in 32 sweeps (%d stations learned)", learner.Learned())
		}
		before := sw.Stats().ToCtrl
		for i, f := range frames {
			port, _ := sw.Port(inPorts[i])
			port.InjectOn(dpdk.AutoQueue, f)
		}
		pollDrain(sw)
		waitUntil(t, "sweep settled", 10*time.Second, settled)
		if sw.Stats().ToCtrl == before {
			break
		}
	}
	if learner.Learned() != hosts || learner.Err() != nil {
		t.Fatalf("learned %d of %d stations (channel error %v)", learner.Learned(), hosts, learner.Err())
	}
	t.Logf("converged in %d sweeps: %d PacketIns, %d FlowMods", passes, learner.PacketIns(), learner.FlowMods())

	// An expiry from the sweeper arrives as a FlowRemoved carrying the
	// entry's counters.
	const timedPackets = 5
	port1, _ := sw.Port(1)
	for i := 0; i < timedPackets; i++ {
		port1.InjectOn(dpdk.AutoQueue, timed)
	}
	pollDrain(sw)
	if n := sweeper.SweepOnce(); n != 0 {
		t.Fatalf("first sweep removed %d entries", n)
	}
	now = now.Add(4 * time.Second)
	if n := sweeper.SweepOnce(); n != 1 {
		t.Fatalf("sweep after the idle window removed %d entries, want 1", n)
	}
	var fr ofp.FlowRemoved
	waitUntil(t, "FlowRemoved at the controller", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		if len(removed) > 0 {
			fr = removed[0]
		}
		return len(removed) > 0
	})
	if fr.Reason != ofp.FlowRemovedIdleTimeout || fr.Priority != 200 || fr.IdleTimeout != 3 || !fr.Match.Equal(timedMatch) {
		t.Fatalf("FlowRemoved identity: %+v", fr)
	}
	if fr.Packets != timedPackets || fr.Bytes != timedPackets*uint64(len(timed)) {
		t.Fatalf("FlowRemoved counters %d packets / %d bytes, want %d / %d",
			fr.Packets, fr.Bytes, timedPackets, timedPackets*len(timed))
	}

	// A port killed under the port supervisor arrives as a PortStatus whose
	// description carries the backend error.
	cut := errors.New("simulated cable pull")
	fbs[victim-1].Kill(cut)
	waitUntil(t, "Down PortStatus at the controller", 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, ps := range statuses {
			if ps.PortNo == victim && ps.State&ofp.PortStateLinkDown != 0 {
				if ps.Reason != ofp.PortStatusModify || !strings.HasPrefix(ps.Desc, "fatal queue error: ") ||
					!strings.Contains(ps.Desc, cut.Error()) {
					t.Errorf("Down PortStatus %+v: want modify, described as \"fatal queue error: ...%v\"", ps, cut)
				}
				return true
			}
		}
		return false
	})

	// Controller 1's EchoReplies are black-holed: the switch drops the
	// session within EchoInterval+EchoTimeout of the last reply it got.
	ctlInj.Set("conn.write.3", faultinject.Rule{Drop: true})
	select {
	case <-run1:
	case <-time.After(5 * time.Second):
		t.Fatal("the switch kept a session whose EchoReplies never arrive")
	}
	lost := time.Now()
	waitUntil(t, "session degraded", 5*time.Second, func() bool { return sup.State() == controller.SupervisorDegraded })
	age := lost.Sub(agent.LastEchoReply())
	if age <= echoTimeout || age > echoInterval+echoTimeout+slack {
		t.Fatalf("session lost %v after the last EchoReply, want within (%v, %v]", age, echoTimeout, echoInterval+echoTimeout)
	}
	t.Logf("session lost %v after the last EchoReply", age)
	if ctlInj.Fired("conn.write.3") == 0 {
		t.Fatal("no EchoReply was dropped")
	}

	// The configured fail mode engages: an unlearnable station's punts are
	// suppressed, not queued for the lost controller.
	if got := sw.FailMode(); got != dpdk.FailStandalone {
		t.Fatalf("fail mode %v after the session died, want standalone", got)
	}
	stray := withMACs(frames[0], 0x02deadbeef99, 0x025e55000003)
	before := sw.Stats()
	for i := 0; i < 8; i++ {
		port1.InjectOn(dpdk.AutoQueue, stray)
	}
	pollDrain(sw)
	after := sw.Stats()
	if after.PuntSuppressed-before.PuntSuppressed != 8 || after.Punts != before.Punts {
		t.Fatalf("degraded: %d punts suppressed, %d queued (want 8, 0)",
			after.PuntSuppressed-before.PuntSuppressed, after.Punts-before.Punts)
	}

	// A second controller dials in and gets the next session: normal mode
	// again, and punts reach it.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	ctrl2 := controller.NewController(conn2)
	learner2 := controller.NewLearningSwitch(ctrl2)
	if err := ctrl2.Hello(); err != nil {
		t.Fatal(err)
	}
	go ctrl2.Run()
	waitUntil(t, "second session", 5*time.Second, func() bool {
		return sup.Sessions() == 2 && sup.State() == controller.SupervisorUp
	})
	if got := sw.FailMode(); got != dpdk.FailNormal {
		t.Fatalf("fail mode %v with the second session up, want normal", got)
	}
	port1.InjectOn(dpdk.AutoQueue, stray)
	pollDrain(sw)
	waitUntil(t, "PacketIn at the second controller", 5*time.Second, func() bool { return learner2.PacketIns() == 1 })

	st := sw.Stats()
	if st.Punts+st.PuntDrops+st.PuntSuppressed+st.PuntFiltered != st.ToCtrl {
		t.Fatalf("punt invariant broken: %+v", st)
	}
}

// TestListenSessionFailModeWithoutRings: the fail mode follows the session
// even with the punt rings unarmed (a proactive -listen).  Under fail-secure
// an output:2,controller packet leaves port 2 while a controller is
// connected, and is dropped whole once it disconnects.
func TestListenSessionFailModeWithoutRings(t *testing.T) {
	pl := openflow.NewPipeline(2)
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Output(2), openflow.ToController()))
	dp, err := core.Compile(pl, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: 2, Queues: 1})
	t.Cleanup(func() { sw.Close() })
	sw.SetFailMode(dpdk.FailSecure) // no controller yet
	agent := controller.NewAgent(dp)
	sess := &controller.Session{Switch: sw, Agent: agent, FailMode: dpdk.FailSecure}
	sup, addr := listen(t, controller.SupervisorConfig{Agent: agent, OnUp: sess.OnUp, OnDown: sess.OnDown})

	ctrl, conn, err := controller.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := ctrl.Barrier(); err != nil { // served: the session is up
		t.Fatal(err)
	}
	frame, _ := workload.L2LearningUseCase(2, 2).Trace(2).Frame(0)
	port1, _ := sw.Port(1)
	port2, _ := sw.Port(2)
	send := func() (dpdk.WorkerStats, int) {
		port1.InjectOn(dpdk.AutoQueue, frame)
		sw.PollOnce(nil)
		return sw.Stats(), port2.DrainTx()
	}

	st, out := send()
	if out != 1 || st.Forwarded != 1 || st.ToCtrl != 1 || st.PuntSuppressed != 0 || st.Dropped != 0 {
		t.Fatalf("session up: %d frames left port 2, forwarded %d, toCtrl %d, suppressed %d, dropped %d (want 1, 1, 1, 0, 0)",
			out, st.Forwarded, st.ToCtrl, st.PuntSuppressed, st.Dropped)
	}

	conn.Close()
	waitUntil(t, "session degraded", 5*time.Second, func() bool { return sup.State() == controller.SupervisorDegraded })
	st, out = send()
	if out != 0 || st.Forwarded != 1 || st.PuntSuppressed != 1 || st.Dropped != 1 {
		t.Fatalf("disconnected: %d frames left port 2, forwarded %d, suppressed %d, dropped %d (want 0, 1, 1, 1)",
			out, st.Forwarded, st.PuntSuppressed, st.Dropped)
	}
}
