package eswitch

import (
	"testing"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/experiments"
	"eswitch/internal/ofp"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/slowpath"
	"eswitch/internal/workload"
)

// TestReactiveLearningEndToEnd is the acceptance test of the slow-path
// subsystem: an L2 learning controller attached over a REAL, supervised TCP
// OpenFlow channel receives the first-packet PacketIns of a multi-host trace through
// the per-worker punt rings, installs flows reactively, and subsequent
// traffic forwards entirely on the fast path — the punt rate converges to
// zero, the accounting invariant delivered + PuntDrops == ToCtrl holds, and
// the learned bridge — one hash stage, however many FlowMods built it — never
// arms the verdict cache the harness asks for.
func TestReactiveLearningEndToEnd(t *testing.T) {
	const hosts = 128
	h, err := experiments.NewChaosHarness(experiments.ChaosConfig{
		Hosts:     hosts,
		Flows:     hosts,
		FlowCache: 4096,
		PuntRing:  512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	passes, err := h.Converge(64, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("converged in %d passes: %d PacketIns, %d FlowMods, %d floods",
		passes, h.Learner.PacketIns(), h.Learner.FlowMods(), h.Learner.Floods())
	if h.Learner.FlowMods() == 0 || h.Learner.Learned() == 0 {
		t.Fatalf("controller learned nothing: %d flows, %d stations", h.Learner.FlowMods(), h.Learner.Learned())
	}
	if h.Learner.Err() != nil {
		t.Fatalf("controller channel error: %v", h.Learner.Err())
	}

	// Accounting invariant: every punted verdict is either a delivered
	// PacketIn or an accounted ring drop (rings are empty after WaitQuiet).
	st := h.SW.Stats()
	if st.ToCtrl == 0 {
		t.Fatal("no punts happened — the reactive path went untested")
	}
	svc := h.Service()
	if svc.SendErrors() != 0 {
		t.Fatalf("%d PacketIns lost to send errors", svc.SendErrors())
	}
	if svc.Delivered()+st.PuntDrops != st.ToCtrl {
		t.Fatalf("accounting broken: delivered %d + puntDrops %d != toCtrl %d",
			svc.Delivered(), st.PuntDrops, st.ToCtrl)
	}
	if st.Punts+st.PuntDrops != st.ToCtrl {
		t.Fatalf("ring accounting broken: punts %d + drops %d != toCtrl %d", st.Punts, st.PuntDrops, st.ToCtrl)
	}

	// Post-convergence: pure fast path, zero punts.
	start := time.Now()
	fwd, punts := h.MeasureForwarding(20_000)
	mpps := 20_000 / time.Since(start).Seconds() / 1e6
	if punts != 0 {
		t.Fatalf("post-convergence traffic still punted %d packets", punts)
	}
	if fwd != 20_000 {
		t.Fatalf("post-convergence forwarded %d of 20000", fwd)
	}
	// The learned pipeline is a single exact-match stage: already one probe,
	// so the compiler leaves the cache unarmed and nothing ever probed it.
	if cs := h.DP.FlowCacheStats(); h.DP.FlowCacheEnabled() || cs.Hits+cs.Misses != 0 {
		t.Fatalf("one-stage learned bridge armed the verdict cache: %+v", cs)
	}
	t.Logf("post-convergence: %.2f Mpps", mpps)
}

// TestReactiveLearningUnderRunWorkers drives the same closed loop with real
// concurrent forwarding workers instead of the deterministic PollOnce
// driver, under live injection — primarily a -race acceptance test for the
// punt rings against the full stack, with the port supervisor's watchdog
// watching the workers.  Each sweep waits until the workers have classified
// it and the punt rings are drained, so a ring never holds more than one
// sweep: a learnable punt dropped at a full ring can starve discovery for
// good (see TestPuntOverflowAccountingOverTCP).  The loop is bounded by the
// controller's progress, not by wall time: it gives up only once neither the
// learned stations nor the installed flows have moved for stallLimit.  Under
// load it once did, one host short: with destination-only learned flows, a
// flow installed mid-sweep carried a sender's only frame, so that sender
// never punted and was never learned (TestLearningSwitchUnseenSenderStillPunts).
func TestReactiveLearningUnderRunWorkers(t *testing.T) {
	const hosts, stallLimit = 64, 5 * time.Second
	h, err := experiments.NewChaosHarness(experiments.ChaosConfig{Hosts: hosts, PuntRing: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	learned, flowMods, progressed := -1, uint64(0), time.Now()
	stalled := func() bool {
		if l, m := h.Learner.Learned(), h.Learner.FlowMods(); l != learned || m != flowMods {
			learned, flowMods, progressed = l, m, time.Now()
		}
		return time.Since(progressed) > stallLimit
	}
	ringsEmpty := func() bool {
		for _, r := range h.Rings {
			if r.Len() > 0 {
				return false
			}
		}
		return true
	}
	stop := h.SW.RunWorkers(2)
	converged := false
	for !converged && !stalled() {
		before := h.SW.Stats()
		injected := uint64(h.InjectAll())
		for (h.SW.Stats().Processed-before.Processed < injected || !ringsEmpty()) && !stalled() {
			time.Sleep(100 * time.Microsecond)
		}
		for _, p := range h.SW.Ports() {
			p.DrainTx()
		}
		// Converged when a whole sweep was classified without a punt, and
		// forwarded.
		st := h.SW.Stats()
		converged = st.Processed-before.Processed == injected && st.ToCtrl == before.ToCtrl && st.Forwarded > before.Forwarded
	}
	stop()
	st := h.SW.Stats()
	if !converged {
		svc := h.Service()
		t.Fatalf("did not converge under RunWorkers: no learning progress for %v at %d of %d hosts, %d flow-mods, %d watchdog stalls, "+
			"%d sessions, %d echo timeouts, %d PacketIns delivered, %d send errors, stats %+v",
			stallLimit, h.Learner.Learned(), hosts, h.Learner.FlowMods(), h.PSup.Stalls(),
			h.Sup.Sessions(), h.Sup.EchoTimeouts(), svc.Delivered(), svc.SendErrors(), st)
	}
	if st.Punts+st.PuntDrops != st.ToCtrl {
		t.Fatalf("ring accounting broken under workers: %+v", st)
	}
}

// TestPuntOverflowAccountingOverTCP forces ring overflow against a live TCP
// controller: a storm of unlearnable punts (destination outside the host
// set, so the controller floods and installs nothing) meets the smallest
// ring the burst guardrail allows behind a rate-capped drain, overflows it,
// and the excess is dropped at the ring — never blocking the fast path —
// with the books still balancing: delivered PacketIns + PuntDrops == ToCtrl.
// The storm is deliberately disjoint from the learnable sweep: punts DROPPED
// for learnable flows can starve discovery forever (the dropped sender's own
// flow may get its destination installed via another sender and never punt
// again, leaving its MAC unlearned), so overflow pressure must come from
// traffic whose delivery teaches the controller nothing it needs.  For the
// same reason the host count stays below the ring capacity: a whole sweep
// must fit the ring, so every host's first punt is delivered and learned.
func TestPuntOverflowAccountingOverTCP(t *testing.T) {
	h, err := experiments.NewChaosHarness(experiments.ChaosConfig{
		Hosts:    48,  // a full sweep fits the 63-slot ring: no learnable drops
		PuntRing: 64,  // capacity 63: the guardrail floor (>= RX burst)
		PuntRate: 500, // slow drain: the storm below outruns it and overflows
	})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// 400 storm punts against a 63-slot ring draining at 500 pps: overflow
	// is guaranteed, and every copy punts no matter how many were already
	// delivered.  Then let the loop quiesce and check the books.
	h.InjectStorm(400)
	h.PollDrain()
	if err := h.WaitQuiet(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := h.SW.Stats()
	if st.PuntDrops == 0 {
		t.Fatalf("storm never overflowed the ring (%+v) — the test lost its point", st)
	}
	if h.Service().Delivered()+st.PuntDrops != st.ToCtrl {
		t.Fatalf("overflow accounting broken: delivered %d + drops %d != toCtrl %d",
			h.Service().Delivered(), st.PuntDrops, st.ToCtrl)
	}
	// The storm only cost drops, not state: full-sweep passes (each fitting
	// the ring whole, so every host's punt is delivered) still converge to
	// zero punts through the rate-capped drain.
	if _, err := h.Converge(8, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, punts := h.MeasureForwarding(5_000); punts != 0 {
		t.Fatalf("post-convergence punts after overflow: %d", punts)
	}
}

// puntRecordKey summarizes one PacketIn-able punt for sequence comparison.
type puntRecordKey struct {
	frame  string
	inPort uint32
	table  openflow.TableID
	reason openflow.PuntReason
}

// collectPuntSequence runs the trace through a fresh switch (flowcache on or
// off), punt rings armed, replaying the flow set `passes` times, and returns
// the full punt sequence in delivery order.
func collectPuntSequence(t *testing.T, flowCache int, pl *openflow.Pipeline, trace *pktgen.Trace, flows, passes int) ([]puntRecordKey, dpdk.WorkerStats) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.FlowCache = flowCache
	dp, err := core.Compile(pl.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if flowCache > 0 && !dp.FlowCacheEnabled() {
		t.Fatal("differential pipeline must be cacheable")
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: pl.NumPorts, RingSize: 8192, Queues: dpdk.DefaultQueues})
	rings, err := sw.ArmPuntRings(1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	var seq []puntRecordKey
	var rec slowpath.PuntRecord
	drain := func() {
		for _, r := range rings {
			for r.Pop(&rec) {
				seq = append(seq, puntRecordKey{
					frame:  string(rec.Frame),
					inPort: rec.InPort,
					table:  rec.Table,
					reason: rec.Reason,
				})
			}
		}
	}
	var p pkt.Packet
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < flows; i++ {
			trace.Next(&p)
			port, err := sw.Port(p.InPort)
			if err != nil {
				t.Fatal(err)
			}
			port.InjectOn(dpdk.AutoQueue, p.Data)
		}
		for sw.PollOnce(nil) > 0 {
		}
		for _, port := range sw.Ports() {
			port.DrainTx()
		}
		drain()
	}
	st := sw.Stats()
	if flowCache > 0 {
		if cs := dp.FlowCacheStats(); cs.Hits == 0 {
			t.Fatalf("cache-on run never hit the cache: %+v", cs)
		}
	}
	return seq, st
}

// TestFlowCachePuntDifferential is the flowcache-correctness satellite: a
// cache hit replaying a punt verdict must enqueue to the punt ring exactly
// like a miss-path punt, so the same trace with the flowcache on and off
// delivers IDENTICAL PacketIn sequences (frame, in-port, originating table,
// reason — in order).
func TestFlowCachePuntDifferential(t *testing.T) {
	const numPorts = 4
	pl := openflow.NewPipeline(numPorts)
	pl.Miss = openflow.MissController
	t0 := pl.Table(0)
	t0.Name = "port-security"
	t1 := pl.AddTable(1)
	t1.Name = "mac"
	known := 32
	mac := func(i int) pkt.MAC { return pkt.MACFromUint64(0x020000000000 + uint64(i)) }
	for i := 0; i < known; i++ {
		t0.AddFlow(100, openflow.NewMatch().
			Set(openflow.FieldInPort, uint64(1+i%numPorts)).
			Set(openflow.FieldEthSrc, mac(i).Uint64()),
			openflow.Goto(1))
		if i%2 == 0 {
			// Only even stations are known destinations: odd destinations
			// miss table 1 and punt with reason no_match.
			t1.AddFlow(100, openflow.NewMatch().Set(openflow.FieldEthDst, mac(i).Uint64()),
				openflow.Apply(openflow.Output(uint32(1+i%numPorts))))
		}
	}
	// Unknown sources punt explicitly from table 0 (reason action).
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.ToController()))

	flows := make([]pktgen.Flow, 0, 64)
	for f := 0; f < 64; f++ {
		src := f % (known + 8) // the +8 tail is unknown sources
		flows = append(flows, pktgen.Flow{
			InPort: uint32(1 + src%numPorts),
			SrcMAC: mac(src),
			DstMAC: mac((f * 7) % (known + 4)), // mix of known/unknown/odd dsts
			L2Only: true,
		})
	}

	build := func() *pktgen.Trace { return pktgen.NewTrace(flows, 42) }
	offSeq, offStats := collectPuntSequence(t, 0, pl, build(), len(flows), 3)
	onSeq, onStats := collectPuntSequence(t, 4096, pl, build(), len(flows), 3)

	if len(offSeq) == 0 {
		t.Fatal("trace produced no punts — differential is vacuous")
	}
	if offStats.PuntDrops != 0 || onStats.PuntDrops != 0 {
		t.Fatalf("ring overflowed (off %d, on %d) — size it up", offStats.PuntDrops, onStats.PuntDrops)
	}
	if len(onSeq) != len(offSeq) {
		t.Fatalf("punt counts differ: flowcache off %d, on %d", len(offSeq), len(onSeq))
	}
	for i := range offSeq {
		if offSeq[i] != onSeq[i] {
			t.Fatalf("PacketIn %d differs:\n  off: port %d table %d reason %v frame %x\n  on:  port %d table %d reason %v frame %x",
				i, offSeq[i].inPort, offSeq[i].table, offSeq[i].reason, offSeq[i].frame,
				onSeq[i].inPort, onSeq[i].table, onSeq[i].reason, onSeq[i].frame)
		}
	}
	// Both runs punted the same packets for the same reasons; sanity-check
	// the mix covered both punt flavours.
	sawMiss, sawAction := false, false
	for _, r := range offSeq {
		switch r.reason {
		case openflow.PuntMiss:
			sawMiss = true
		case openflow.PuntAction:
			sawAction = true
		}
	}
	if !sawMiss || !sawAction {
		t.Fatalf("differential did not cover both punt reasons (miss=%v action=%v)", sawMiss, sawAction)
	}
}

// TestL2LearningUseCaseShape pins the new workload: empty pipeline, miss
// punts to controller, trace covers every host as a source.
func TestL2LearningUseCaseShape(t *testing.T) {
	uc := workload.L2LearningUseCase(32, 4)
	if uc.Pipeline.Miss != openflow.MissController {
		t.Fatal("learning pipeline must punt on miss")
	}
	if uc.Pipeline.NumEntries() != 0 {
		t.Fatal("learning pipeline must start empty")
	}
	trace := uc.Trace(32)
	srcs := map[uint64]bool{}
	var p pkt.Packet
	for i := 0; i < trace.NumFlows(); i++ {
		trace.Next(&p)
		pkt.ParseL2(&p)
		srcs[p.Headers.EthSrc.Uint64()] = true
		if p.Headers.EthSrc == p.Headers.EthDst {
			t.Fatal("self-traffic in learning trace")
		}
	}
	if len(srcs) != 32 {
		t.Fatalf("trace covers %d of 32 hosts as sources", len(srcs))
	}
}

// TestPacketOutTableKeepsCacheIdentity: an output:TABLE PacketOut classifies
// its frame through Process, which on an unmetered, cache-armed datapath
// probes a pinned worker's verdict cache although no forwarding worker
// received the frame.  The verdict cache's identity holds once the switch's
// re-injection count joins the workers' Processed, as its callers add it.
func TestPacketOutTableKeepsCacheIdentity(t *testing.T) {
	uc := workload.GatewayUseCase(workload.GatewayConfig{CEs: 2, UsersPerCE: 4, Prefixes: 100, Seed: 1})
	opts := core.DefaultOptions()
	opts.FlowCache = 4096
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !dp.FlowCacheEnabled() {
		t.Fatal("the gateway did not arm the verdict cache")
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: uc.Pipeline.NumPorts, RingSize: 1024, Queues: 1})
	trace := uc.Trace(64)
	for i := 0; i < 64; i++ {
		f, in := trace.Frame(i)
		p, err := sw.Port(in)
		if err != nil {
			t.Fatal(err)
		}
		p.InjectOn(dpdk.AutoQueue, f)
	}
	for sw.PollOnce(nil) > 0 {
	}
	for i := 0; i < 2; i++ {
		f, in := trace.Frame(i)
		if err := sw.PacketOut(in, f, openflow.ActionList{openflow.Output(openflow.PortTable)}); err != nil {
			t.Fatal(err)
		}
	}
	st := sw.Stats()
	if st.Processed != 64 || st.Forwarded == 0 {
		t.Fatalf("workers processed %d and forwarded %d of 64 frames", st.Processed, st.Forwarded)
	}
	if got := sw.Reinjected(); got != 2 {
		t.Fatalf("Reinjected = %d after two output:TABLE PacketOuts", got)
	}
	fc := dp.FlowCacheStats()
	if err := fc.CheckInvariants(st.Processed+sw.Reinjected(), st.Panics); err != nil {
		t.Fatalf("%v (%d hits, %d misses)", err, fc.Hits, fc.Misses)
	}
}

// interpDatapath adapts the reference interpreter (§2.1's "direct datapath")
// to the dpdk substrate's Datapath surface, so the miss_send_len
// differential below can drive the interpreter, compiled, and
// compiled+flowcache paths through the identical switch + slow-path stack.
func interpDatapath(in *openflow.Interpreter) dpdk.DatapathFunc {
	return func(p *pkt.Packet, v *openflow.Verdict) { in.Process(p, v, nil) }
}

// The compiled datapath drives the substrate's workers directly: its
// core.WorkerHandle is the dpdk.Worker the interface names.
var _ dpdk.Datapath = (*core.Datapath)(nil)

// missSendLenKey is one delivered PacketIn's truncation-relevant shape.
type missSendLenKey struct {
	inPort   uint32
	reason   uint8
	totalLen uint16
	data     string
}

// TestMissSendLenTruncationAcrossPaths: PacketIn truncation is a property of
// the slow path, not the classifier — every datapath flavour (interpreter,
// compiled, compiled+flowcache) must deliver the same miss_send_len-capped
// Data with the original frame length preserved in TotalLen.
func TestMissSendLenTruncationAcrossPaths(t *testing.T) {
	const missSendLen = 60
	pl := openflow.NewPipeline(4)
	pl.Miss = openflow.MissController
	pl.Table(0).AddFlow(100,
		openflow.NewMatch().Set(openflow.FieldEthDst, 0x42),
		openflow.Apply(openflow.Output(2)))

	frame := func(dst byte, size int) []byte {
		f := make([]byte, size)
		f[5] = dst // dst MAC 00:00:00:00:00:<dst>
		f[11] = 0x99
		for i := 14; i < size; i++ {
			f[i] = byte(i)
		}
		return f
	}
	// A long punted frame (truncated), a short punted frame (sent whole),
	// and a forwarded frame (never punted).
	inputs := [][]byte{frame(0x07, 120), frame(0x08, 40), frame(0x42, 120)}

	run := func(dp dpdk.Datapath, passes int) []missSendLenKey {
		t.Helper()
		// A single RX queue keeps delivery order equal to injection order
		// (AutoQueue injection RSS-shards across queues otherwise).
		sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: 4, RingSize: 1024, Queues: 1})
		rings, err := sw.ArmPuntRings(256, 0)
		if err != nil {
			t.Fatal(err)
		}
		var seq []missSendLenKey
		svc, err := slowpath.NewService(slowpath.Config{
			Rings:       rings,
			MissSendLen: missSendLen,
			Send: func(pi ofp.PacketIn) error {
				seq = append(seq, missSendLenKey{
					inPort: pi.InPort, reason: pi.Reason,
					totalLen: pi.TotalLen, data: string(pi.Data),
				})
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		port, _ := sw.Port(1)
		for pass := 0; pass < passes; pass++ {
			for _, f := range inputs {
				port.InjectOn(dpdk.AutoQueue, f)
			}
			for sw.PollOnce(nil) > 0 {
			}
			for svc.Poll() > 0 {
			}
		}
		if st := sw.Stats(); st.PuntDrops != 0 {
			t.Fatalf("punt ring overflowed: %+v", st)
		}
		return seq
	}

	interp := run(interpDatapath(openflow.NewInterpreter(pl)), 2)

	compile := func(flowCache int) *core.Datapath {
		opts := core.DefaultOptions()
		opts.FlowCache = flowCache
		dp, err := core.Compile(pl.Clone(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return dp
	}
	compiled := run(compile(0), 2)
	cached := run(compile(4096), 2)

	if len(interp) != 4 { // 2 passes × 2 punting frames
		t.Fatalf("interpreter delivered %d PacketIns, want 4", len(interp))
	}
	for i, pi := range interp {
		orig := inputs[i%2] // long, short, long, short
		if int(pi.totalLen) != len(orig) {
			t.Fatalf("PacketIn %d: TotalLen %d, want original length %d", i, pi.totalLen, len(orig))
		}
		wantLen := len(orig)
		if wantLen > missSendLen {
			wantLen = missSendLen
		}
		if len(pi.data) != wantLen || pi.data != string(orig[:wantLen]) {
			t.Fatalf("PacketIn %d: data is not the %d-byte frame prefix (got %d bytes)", i, wantLen, len(pi.data))
		}
	}
	for name, seq := range map[string][]missSendLenKey{"compiled": compiled, "flowcache": cached} {
		if len(seq) != len(interp) {
			t.Fatalf("%s delivered %d PacketIns, interpreter %d", name, len(seq), len(interp))
		}
		for i := range seq {
			if seq[i] != interp[i] {
				t.Fatalf("%s PacketIn %d differs from interpreter:\n  %+v\n  %+v", name, i, seq[i], interp[i])
			}
		}
	}
}
