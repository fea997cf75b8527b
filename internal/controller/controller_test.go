package controller

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/ofp"
	"eswitch/internal/openflow"
	"eswitch/internal/ovs"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// startChannel wires a controller to an agent over a loopback TCP connection.
func startChannel(t *testing.T, programmer FlowProgrammer) (*Controller, *Agent, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(programmer)
	var wg sync.WaitGroup
	wg.Add(1)
	var serveErr error
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			serveErr = err
			return
		}
		serveErr = agent.Serve(conn)
	}()
	ctrl, conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		conn.Close()
		ln.Close()
		wg.Wait()
		if serveErr != nil {
			t.Fatalf("agent error: %v", serveErr)
		}
	}
	return ctrl, agent, cleanup
}

func emptyDatapath(t *testing.T) *core.Datapath {
	t.Helper()
	pl := openflow.NewPipeline(4)
	dp, err := core.Compile(pl, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return dp
}

func TestInstallPipelineOverChannel(t *testing.T) {
	dp := emptyDatapath(t)
	ctrl, agent, cleanup := startChannel(t, dp)
	defer cleanup()

	if err := ctrl.Hello(); err != nil {
		t.Fatal(err)
	}
	target := workload.FirewallMultiStage()
	if err := ctrl.InstallPipeline(target); err != nil {
		t.Fatal(err)
	}
	if agent.FlowMods() != uint64(target.NumEntries()) {
		t.Fatalf("agent applied %d flow mods, want %d", agent.FlowMods(), target.NumEntries())
	}
	// The installed datapath must now forward like the firewall.
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
		pkt.IPv4Opts{Src: pkt.IPv4FromOctets(198, 51, 100, 1), Dst: workload.WebServerIP},
		pkt.L4Opts{Src: 40000, Dst: 80}))
	p := &pkt.Packet{Data: frame, InPort: 1}
	var v openflow.Verdict
	dp.Process(p, &v)
	if !v.Forwarded() || v.OutPorts[0] != 2 {
		t.Fatalf("installed firewall misbehaves: %v", v.String())
	}
}

func TestInstallDirectMatchesChannelInstall(t *testing.T) {
	target := workload.LoadBalancerUseCase(5).Pipeline

	viaDirect := emptyDatapath(t)
	if err := InstallDirect(viaDirect, target); err != nil {
		t.Fatal(err)
	}
	viaChannel := emptyDatapath(t)
	ctrl, _, cleanup := startChannel(t, viaChannel)
	if err := ctrl.InstallPipeline(target); err != nil {
		t.Fatal(err)
	}
	cleanup()

	// Both installation paths must yield equivalent forwarding.
	b := pkt.NewBuilder(128)
	for i := 0; i < 50; i++ {
		dst := pkt.IPv4FromOctets(198, 51, 0, byte(i%5))
		frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
			pkt.IPv4Opts{Src: pkt.IPv4(uint32(i) * 0x01000193), Dst: dst},
			pkt.L4Opts{Src: uint16(1000 + i), Dst: 80}))
		p1 := &pkt.Packet{Data: frame, InPort: 1}
		p2 := &pkt.Packet{Data: append([]byte(nil), frame...), InPort: 1}
		var v1, v2 openflow.Verdict
		viaDirect.Process(p1, &v1)
		viaChannel.Process(p2, &v2)
		if !v1.Equivalent(&v2) {
			t.Fatalf("packet %d: direct=%v channel=%v", i, v1.String(), v2.String())
		}
	}
}

func TestDeleteFlowOverChannel(t *testing.T) {
	dp := emptyDatapath(t)
	ctrl, _, cleanup := startChannel(t, dp)
	defer cleanup()

	m := openflow.NewMatch().Set(openflow.FieldTCPDst, 80)
	if err := ctrl.InstallFlow(0, 10, m, openflow.Apply(openflow.Output(2))); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.deleteFlow(0, 10, m); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := dp.Pipeline().Table(0).Len(); got != 0 {
		t.Fatalf("flow not deleted: %d entries", got)
	}
}

func TestAgentWorksWithOVSBaseline(t *testing.T) {
	sw, err := ovs.New(openflow.NewPipeline(4), ovs.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, _, cleanup := startChannel(t, sw)
	defer cleanup()
	if err := ctrl.InstallPipeline(workload.FirewallSingleStage()); err != nil {
		t.Fatal(err)
	}
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
		pkt.IPv4Opts{Src: 9, Dst: workload.WebServerIP}, pkt.L4Opts{Src: 1, Dst: 80}))
	p := &pkt.Packet{Data: frame, InPort: 1}
	var v openflow.Verdict
	sw.Process(p, &v)
	if !v.Forwarded() {
		t.Fatalf("ovs baseline after channel install: %v", v.String())
	}
}

func TestReactivePacketInPath(t *testing.T) {
	dp := emptyDatapath(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	agent := NewAgent(dp)
	serverConn := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			serverConn <- conn
			agent.Serve(conn)
		}
	}()
	ctrl, clientConn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer clientConn.Close()

	got := make(chan ofp.PacketIn, 1)
	ctrl.PacketInHandler = func(pi ofp.PacketIn) { got <- pi }
	go ctrl.Run()

	sc := <-serverConn
	if err := agent.SendPacketIn(sc, ofp.PacketIn{InPort: 7, TableID: 3, Data: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	pi := <-got
	if pi.InPort != 7 || pi.TableID != 3 || len(pi.Data) != 3 {
		t.Fatalf("packet-in: %+v", pi)
	}
	// The controller reacts by installing a flow and sending the packet out.
	if err := ctrl.InstallFlow(0, 5, openflow.NewMatch().Set(openflow.FieldInPort, 7), openflow.Apply(openflow.Output(1))); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SendPacketOut(ofp.PacketOut{InPort: 7, Actions: openflow.ActionList{openflow.Output(1)}, Data: pi.Data}); err != nil {
		t.Fatal(err)
	}
	// Wait until the agent has applied both messages.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && (agent.FlowMods() < 1 || agent.PacketOuts() < 1) {
		time.Sleep(time.Millisecond)
	}
	if agent.FlowMods() != 1 || agent.PacketOuts() != 1 {
		t.Fatalf("agent state: flowmods=%d packetouts=%d", agent.FlowMods(), agent.PacketOuts())
	}
}

// TestAgentEchoKeepalive: the agent answers EchoRequests with an EchoReply
// echoing both xid and body, so long-lived channels survive keepalives.
func TestAgentEchoKeepalive(t *testing.T) {
	dp := emptyDatapath(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	agent := NewAgent(dp)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			agent.Serve(conn)
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Consume the agent's Hello.
	if msg, err := ofp.ReadMessage(conn); err != nil || msg.Type != ofp.TypeHello {
		t.Fatalf("hello: %v %v", msg, err)
	}
	for i := 0; i < 3; i++ {
		body := []byte{0xbe, 0xef, byte(i)}
		xid := uint32(1000 + i)
		if err := ofp.WriteMessage(conn, ofp.Message{Type: ofp.TypeEchoRequest, Xid: xid, Body: body}); err != nil {
			t.Fatal(err)
		}
		reply, err := ofp.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != ofp.TypeEchoReply || reply.Xid != xid || string(reply.Body) != string(body) {
			t.Fatalf("echo reply %d: %+v", i, reply)
		}
	}
}

// TestAgentSkipsUnknownMessageTypes: unknown message types (version skew,
// unimplemented extensions) are skipped, not fatal — the channel keeps
// serving afterwards.
func TestAgentSkipsUnknownMessageTypes(t *testing.T) {
	dp := emptyDatapath(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	agent := NewAgent(dp)
	serveErr := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serveErr <- err
			return
		}
		serveErr <- agent.Serve(conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := ofp.ReadMessage(conn); err != nil || msg.Type != ofp.TypeHello {
		t.Fatalf("hello: %v %v", msg, err)
	}
	// Fire several unknown types, then prove the channel still works with a
	// barrier round trip.
	for _, typ := range []ofp.MsgType{42, 99, 250} {
		if err := ofp.WriteMessage(conn, ofp.Message{Type: typ, Xid: 7, Body: []byte{1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ofp.WriteMessage(conn, ofp.Message{Type: ofp.TypeBarrierRequest, Xid: 77}); err != nil {
		t.Fatal(err)
	}
	reply, err := ofp.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != ofp.TypeBarrierReply || reply.Xid != 77 {
		t.Fatalf("barrier after unknown types: %+v", reply)
	}
	conn.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("agent died on unknown message types: %v", err)
	}
}

// TestFlowRemovedEndToEnd closes the lifecycle loop over a real TCP channel:
// the controller installs a self-expiring flow with InstallFlowLifetime (the
// idle timeout rides the FlowMod body), the switch-side sweeper expires it on
// an injected clock, and the resulting FlowRemoved travels back through the
// session's hook (Session.FlowRemoved, as eswitchd wires it) into the
// controller's FlowRemovedHandler.
func TestFlowRemovedEndToEnd(t *testing.T) {
	pl := openflow.NewPipeline(4)
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	opts := core.DefaultOptions()
	opts.UpdateCounters = true // the sweeper's idle detector reads per-entry counters
	dp, err := core.Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(dp)
	sess := &Session{Switch: dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: 4}), Agent: agent}
	sup, err := NewSupervisor(SupervisorConfig{Dial: ln.Accept, Agent: agent, OnUp: sess.OnUp, OnDown: sess.OnDown})
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	defer func() {
		ln.Close()
		sup.Stop()
	}()
	ctrl, clientConn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer clientConn.Close()

	var removed []ofp.FlowRemoved
	ctrl.FlowRemovedHandler = func(fr ofp.FlowRemoved) { removed = append(removed, fr) }

	// Install a flow that expires after 3 idle seconds.
	match := openflow.NewMatch().Set(openflow.FieldIPSrc, 0x0a000001)
	if err := ctrl.InstallFlowLifetime(0, 10, match, openflow.Apply(openflow.Output(2)), 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := dp.Pipeline().Table(0).Len(); got != 2 {
		t.Fatalf("table holds %d entries after install, want 2", got)
	}

	// Switch-side sweeper: expirations are delivered to the controller through
	// the same shared channel the agent serves (off the worker hot path).  The
	// barrier above was served, so the session is up.
	now := time.Unix(3000, 0)
	s := core.NewSweeper(dp, core.SweeperConfig{
		Now:       func() time.Time { return now },
		OnRemoved: sess.FlowRemoved,
	})
	if n := s.SweepOnce(); n != 0 {
		t.Fatalf("sweep at install time removed %d entries", n)
	}
	now = now.Add(4 * time.Second)
	if n := s.SweepOnce(); n != 1 {
		t.Fatalf("sweep after idle window removed %d entries, want 1", n)
	}

	// The FlowRemoved was framed onto the wire before this BarrierRequest, so
	// the barrier's dispatch loop must deliver it before the reply arrives.
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 {
		t.Fatalf("controller saw %d FlowRemoved messages, want 1", len(removed))
	}
	fr := removed[0]
	if fr.Reason != ofp.FlowRemovedIdleTimeout {
		t.Fatalf("reason %d, want idle timeout", fr.Reason)
	}
	if fr.TableID != 0 || fr.Priority != 10 || fr.IdleTimeout != 3 {
		t.Fatalf("identity fields: %+v", fr)
	}
	if fr.DurationSec != 4 {
		t.Fatalf("duration %ds, want 4s", fr.DurationSec)
	}
	if !fr.Match.Equal(match) {
		t.Fatalf("match mismatch: %v vs %v", fr.Match, match)
	}
	if got := dp.Pipeline().Table(0).Len(); got != 1 {
		t.Fatalf("table holds %d entries after expiry, want the catch-all only", got)
	}
}

// countingProgrammer wraps a FlowProgrammer and records the apply count at
// observation points.
type countingProgrammer struct {
	inner FlowProgrammer
	adds  atomic.Uint64
}

func (c *countingProgrammer) AddFlow(tid openflow.TableID, e *openflow.FlowEntry) error {
	c.adds.Add(1)
	return c.inner.AddFlow(tid, e)
}

func (c *countingProgrammer) DeleteFlow(tid openflow.TableID, m *openflow.Match, p int) (int, error) {
	return c.inner.DeleteFlow(tid, m, p)
}

// TestConcurrentFlowModsBarrierOrdering runs many goroutines installing
// flows over ONE real TCP channel (the Controller serializes framing) and
// asserts the Barrier contract: by the time BarrierReply arrives, every
// FlowMod sent before the BarrierRequest has been applied to the datapath.
// Run under -race this also proves the channel stack is data-race free.
func TestConcurrentFlowModsBarrierOrdering(t *testing.T) {
	dp := emptyDatapath(t)
	cp := &countingProgrammer{inner: dp}
	ctrl, agent, cleanup := startChannel(t, cp)
	defer cleanup()

	const writers = 8
	const perWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m := openflow.NewMatch().Set(openflow.FieldEthDst, uint64(w)<<16|uint64(i))
				if err := ctrl.InstallFlow(0, 10, m, openflow.Apply(openflow.Output(1))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	// All FlowMods preceded the barrier on the wire, so all must be applied.
	if got := cp.adds.Load(); got != writers*perWriter {
		t.Fatalf("BarrierReply arrived with %d of %d FlowMods applied", got, writers*perWriter)
	}
	if agent.FlowMods() != writers*perWriter {
		t.Fatalf("agent counted %d flowmods", agent.FlowMods())
	}
}

// TestLearningSwitchHandlesPacketIn unit-tests the reactive handler against
// a scripted channel: unknown destination floods without installing, known
// destination installs exactly one FlowMod and outputs.
func TestLearningSwitchHandlesPacketIn(t *testing.T) {
	dp := emptyDatapath(t)
	ctrl, agent, cleanup := startChannel(t, dp)
	defer cleanup()
	ls := NewLearningSwitch(ctrl)

	b := pkt.NewBuilder(64)
	macA := pkt.MACFromUint64(0xaa)
	macB := pkt.MACFromUint64(0xbb)
	frameAtoB := pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{Src: macA, Dst: macB, EtherType: 0x0800}, nil))
	frameBtoA := pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{Src: macB, Dst: macA, EtherType: 0x0800}, nil))

	// A->B: B unknown — learn A, flood, no FlowMod.
	ls.handlePacketIn(ofp.PacketIn{InPort: 1, Reason: ofp.PacketInReasonNoMatch, Data: frameAtoB})
	if ls.Learned() != 1 || ls.FlowMods() != 0 || ls.Floods() != 1 {
		t.Fatalf("after A->B: learned=%d flowmods=%d floods=%d", ls.Learned(), ls.FlowMods(), ls.Floods())
	}
	// B->A: A known — learn B, install the B->A flow, packet-out to A's port.
	ls.handlePacketIn(ofp.PacketIn{InPort: 2, Reason: ofp.PacketInReasonNoMatch, Data: frameBtoA})
	if ls.Learned() != 2 || ls.FlowMods() != 1 {
		t.Fatalf("after B->A: learned=%d flowmods=%d", ls.Learned(), ls.FlowMods())
	}
	// A->B again: B now known — install the A->B flow, no new flood.
	ls.handlePacketIn(ofp.PacketIn{InPort: 1, Reason: ofp.PacketInReasonNoMatch, Data: frameAtoB})
	if ls.FlowMods() != 2 || ls.Floods() != 1 {
		t.Fatalf("after 2nd A->B: flowmods=%d floods=%d", ls.FlowMods(), ls.Floods())
	}
	// Same punt once more: the flow is already installed, no duplicate mod.
	ls.handlePacketIn(ofp.PacketIn{InPort: 1, Reason: ofp.PacketInReasonNoMatch, Data: frameAtoB})
	if ls.FlowMods() != 2 {
		t.Fatalf("duplicate install: flowmods=%d", ls.FlowMods())
	}
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	if agent.FlowMods() != 2 || agent.PacketOuts() != 4 {
		t.Fatalf("agent saw flowmods=%d packetouts=%d", agent.FlowMods(), agent.PacketOuts())
	}
	if ls.Err() != nil {
		t.Fatal(ls.Err())
	}
}

// TestLearningSwitchUnseenSenderStillPunts: a flow learned from one sender's
// punt must not carry another sender's frames to the same station.  Were it
// to — a destination-only flow — a sender whose only traffic goes there
// would never punt and never be learned, and every frame to it would punt
// forever.
func TestLearningSwitchUnseenSenderStillPunts(t *testing.T) {
	pl := openflow.NewPipeline(4)
	pl.Miss = openflow.MissController
	dp, err := core.Compile(pl, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, _, cleanup := startChannel(t, dp)
	defer cleanup()
	ls := NewLearningSwitch(ctrl)

	b := pkt.NewBuilder(64)
	frame := func(src, dst uint64) []byte {
		return pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{Src: pkt.MACFromUint64(src), Dst: pkt.MACFromUint64(dst), EtherType: 0x0800}, nil))
	}
	// B speaks (learned on port 2), then C answers it: B is known, so the
	// controller installs C's flow to B.
	ls.handlePacketIn(ofp.PacketIn{InPort: 2, Reason: ofp.PacketInReasonNoMatch, Data: frame(0xbb, 0xcc)})
	ls.handlePacketIn(ofp.PacketIn{InPort: 3, Reason: ofp.PacketInReasonNoMatch, Data: frame(0xcc, 0xbb)})
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	var v openflow.Verdict
	dp.Process(&pkt.Packet{Data: frame(0xcc, 0xbb), InPort: 3}, &v)
	if len(v.OutPorts) != 1 || v.OutPorts[0] != 2 || v.ToController {
		t.Fatalf("C->B after the install: %s", &v)
	}
	// A, never seen, sends to B: its frame must reach the controller.
	dp.Process(&pkt.Packet{Data: frame(0xaa, 0xbb), InPort: 1}, &v)
	if !v.ToController || v.Forwarded() {
		t.Fatalf("A->B rode the flow learned from C (%s): A would never be learned", &v)
	}
}
