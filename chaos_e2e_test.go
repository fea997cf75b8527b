package eswitch

import (
	"testing"
	"time"

	"eswitch/internal/controller"
	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/experiments"
	"eswitch/internal/faultinject"
)

// These are the chaos acceptance tests of the failure plane: the full
// reactive stack (compiled L2-learning pipeline, punt rings, slow-path
// service, supervised TCP OpenFlow channel, learning controller) driven
// through controller death and revival, with every phase audited against the
// punt accounting invariant
//
//	Punts + PuntDrops + PuntSuppressed + PuntFiltered == ToCtrl
//
// The harness (experiments.ChaosHarness) puts the controller behind a real
// listener the test can kill and rebind, and the switch behind a
// controller.Supervisor whose seeded backoff sequence the test replays with
// controller.BackoffSchedule.

// assertPuntInvariant checks the 4-term punt accounting identity.
func assertPuntInvariant(t *testing.T, h *experiments.ChaosHarness, phase string) {
	t.Helper()
	st := h.SW.Stats()
	if st.Punts+st.PuntDrops+st.PuntSuppressed+st.PuntFiltered != st.ToCtrl {
		t.Fatalf("%s: punt invariant broken: queued %d + ringDrops %d + suppressed %d + filtered %d != toCtrl %d",
			phase, st.Punts, st.PuntDrops, st.PuntSuppressed, st.PuntFiltered, st.ToCtrl)
	}
}

// TestChaosControllerLossFailStandalone is the flagship chaos scenario:
// kill the controller mid-learning and verify the switch enters
// fail-standalone — installed flows keep forwarding at full rate, punts are
// suppressed (counted, never queued), nothing is dropped — while the
// supervisor backs off with exactly the seeded jitter schedule; then revive
// the controller and verify the loop reconverges to zero punts.
func TestChaosControllerLossFailStandalone(t *testing.T) {
	const hosts = 64
	cfg := experiments.ChaosConfig{
		Hosts:      hosts,
		PuntRing:   1024,
		FailMode:   dpdk.FailStandalone,
		Seed:       7,
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 40 * time.Millisecond,
	}
	h, err := experiments.NewChaosHarness(cfg)
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	defer h.Close()

	// Phase 1 — mid-learning: one discovery sweep teaches the controller
	// every source MAC but installs only the flows whose destination was
	// already learned when their punt arrived.  The table is genuinely
	// half-built when the controller dies.
	h.InjectAll()
	h.PollDrain()
	if err := h.WaitQuiet(10 * time.Second); err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	// WaitQuiet sees ring/counter stability, not the TCP pipe: a sweep's
	// PacketIns can still be in flight toward the controller when it
	// returns.  Learning has started once at least one punt came back as a
	// FlowMod; give the in-flight tail a moment to land.
	learnDeadline := time.Now().Add(5 * time.Second)
	for h.Learner.PacketIns() == 0 || h.Agent.FlowMods() == 0 {
		if time.Now().After(learnDeadline) {
			t.Fatalf("phase 1: learning never started (packetIns %d, flowMods %d)",
				h.Learner.PacketIns(), h.Agent.FlowMods())
		}
		time.Sleep(time.Millisecond)
	}
	assertPuntInvariant(t, h, "phase 1 (mid-learning)")

	// Phase 2 — kill the controller mid-learning.
	h.KillController()
	if err := h.WaitState(controller.SupervisorDegraded, 5*time.Second); err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	if got := h.SW.FailMode(); got != dpdk.FailStandalone {
		t.Fatalf("phase 2: dataplane in fail mode %v, want standalone", got)
	}

	// Phase 3 — degraded forwarding: in fail-standalone every packet of the
	// sweep either forwards through an installed flow or has its punt
	// suppressed; none is queued for the dead controller, none is dropped.
	before := h.SW.Stats()
	injected := uint64(h.InjectAll())
	h.PollDrain()
	after := h.SW.Stats()
	fwd := after.Forwarded - before.Forwarded
	supp := after.PuntSuppressed - before.PuntSuppressed
	if fwd == 0 {
		t.Fatalf("phase 3: no installed flow forwarded while degraded")
	}
	if supp == 0 {
		t.Fatalf("phase 3: no punt was suppressed — the sweep should still have unlearned flows")
	}
	if fwd+supp != injected {
		t.Fatalf("phase 3: forwarded %d + suppressed %d != injected %d (standalone must not drop or queue)",
			fwd, supp, injected)
	}
	if after.Punts != before.Punts {
		t.Fatalf("phase 3: %d punts queued for a dead controller", after.Punts-before.Punts)
	}
	if after.Dropped != before.Dropped {
		t.Fatalf("phase 3: fail-standalone dropped %d packets", after.Dropped-before.Dropped)
	}
	// A storm of unlearnable traffic is likewise suppressed, not queued.
	storm := uint64(h.InjectStorm(200))
	h.PollDrain()
	st := h.SW.Stats()
	if st.PuntSuppressed != after.PuntSuppressed+storm {
		t.Fatalf("phase 3: storm suppressed %d of %d", st.PuntSuppressed-after.PuntSuppressed, storm)
	}
	if st.Punts != after.Punts {
		t.Fatalf("phase 3: storm queued %d punts while degraded", st.Punts-after.Punts)
	}
	assertPuntInvariant(t, h, "phase 3 (degraded)")

	// Phase 4 — the redial backoff is exactly the seeded schedule.  The
	// attempt counter reset when the session came up, so the recorded
	// sequence aligns with BackoffSchedule from index 0.
	deadline := time.Now().Add(5 * time.Second)
	for len(h.Sup.Backoffs()) < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("phase 4: only %d backoffs recorded", len(h.Sup.Backoffs()))
		}
		time.Sleep(time.Millisecond)
	}
	got := h.Sup.Backoffs()
	want := controller.BackoffSchedule(controller.SupervisorConfig{
		BackoffMin: cfg.BackoffMin,
		BackoffMax: cfg.BackoffMax,
		Seed:       cfg.Seed,
	}, len(got))
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("phase 4: backoff[%d] = %v, schedule says %v (full: got %v want %v)",
				i, got[i], want[i], got, want)
		}
	}

	// Phase 5 — revive the controller on its original address; the
	// supervisor's next dial succeeds and the channel comes back.
	if err := h.ReviveController(); err != nil {
		t.Fatalf("phase 5: %v", err)
	}
	if err := h.WaitSessions(2, 5*time.Second); err != nil {
		t.Fatalf("phase 5: %v", err)
	}
	if err := h.WaitState(controller.SupervisorUp, 5*time.Second); err != nil {
		t.Fatalf("phase 5: %v", err)
	}
	if got := h.SW.FailMode(); got != dpdk.FailNormal {
		t.Fatalf("phase 5: dataplane still in fail mode %v after reconnect", got)
	}

	// Phase 6 — reconvergence: the controller kept its MAC table across the
	// outage (Attach cleared only the installed-flow ledger), so discovery
	// finishes and the punt rate reaches zero.
	pass, err := h.Converge(8, 10*time.Second)
	if err != nil {
		t.Fatalf("phase 6: %v", err)
	}
	t.Logf("reconverged in %d passes, %d sessions, backoffs %v", pass, h.Sup.Sessions(), got)
	fwd2, punts2 := h.MeasureForwarding(5_000)
	if punts2 != 0 {
		t.Fatalf("phase 6: %d punts after reconvergence", punts2)
	}
	if fwd2 < 5_000 {
		t.Fatalf("phase 6: only %d/5000 forwarded after reconvergence", fwd2)
	}
	assertPuntInvariant(t, h, "phase 6 (reconverged)")
}

// TestChaosControllerLossFailSecure verifies the conservative degraded mode:
// with the controller dead, controller-dependent packets are dropped
// outright (counted in both Dropped and PuntSuppressed) while flows with
// installed verdicts keep forwarding.
func TestChaosControllerLossFailSecure(t *testing.T) {
	h, err := experiments.NewChaosHarness(experiments.ChaosConfig{
		Hosts:    32,
		FailMode: dpdk.FailSecure,
		Seed:     11,
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	defer h.Close()

	h.InjectAll()
	h.PollDrain()
	if err := h.WaitQuiet(10 * time.Second); err != nil {
		t.Fatalf("learning: %v", err)
	}

	h.KillController()
	if err := h.WaitState(controller.SupervisorDegraded, 5*time.Second); err != nil {
		t.Fatalf("degrade: %v", err)
	}
	if got := h.SW.FailMode(); got != dpdk.FailSecure {
		t.Fatalf("dataplane in fail mode %v, want secure", got)
	}

	before := h.SW.Stats()
	injected := uint64(h.InjectAll())
	h.PollDrain()
	after := h.SW.Stats()
	fwd := after.Forwarded - before.Forwarded
	dropped := after.Dropped - before.Dropped
	supp := after.PuntSuppressed - before.PuntSuppressed
	if supp == 0 || dropped != supp {
		t.Fatalf("fail-secure: suppressed %d, dropped %d — every suppressed punt must drop its packet", supp, dropped)
	}
	if fwd+dropped != injected {
		t.Fatalf("fail-secure: forwarded %d + dropped %d != injected %d", fwd, dropped, injected)
	}
	if after.Punts != before.Punts {
		t.Fatalf("fail-secure: %d punts queued for a dead controller", after.Punts-before.Punts)
	}
	assertPuntInvariant(t, h, "fail-secure degraded")
}

// TestChaosInjectedFlowModFailures threads the fault injector through the
// switch-side flow programmer: the first FlowMods are rejected with a
// table-full error, the agent maps each to OFPET_FLOW_MOD_FAILED/TABLE_FULL
// over the live channel, the learning controller un-marks the rejected
// flows, and the loop still converges to zero punts — rejected flows are
// simply re-learned on their next punt.
func TestChaosInjectedFlowModFailures(t *testing.T) {
	inj := faultinject.New(99)
	inj.Set("flowmod.add", faultinject.Rule{
		Count: 3,
		Err:   &core.TableFullError{Table: 0, Limit: 0},
	})
	h, err := experiments.NewChaosHarness(experiments.ChaosConfig{
		Hosts:    32,
		Seed:     99,
		Injector: inj,
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	defer h.Close()

	if _, err := h.Converge(12, 10*time.Second); err != nil {
		t.Fatalf("converge under flow-mod faults: %v", err)
	}
	if fired := inj.Fired("flowmod.add"); fired != 3 {
		t.Fatalf("injector fired %d times, want 3", fired)
	}
	if h.Agent.FlowModErrors() != 3 {
		t.Fatalf("agent counted %d flow-mod errors, want 3", h.Agent.FlowModErrors())
	}
	if h.Learner.FlowModErrors() != 3 {
		t.Fatalf("controller saw %d TABLE_FULL errors over the channel, want 3", h.Learner.FlowModErrors())
	}
	fwd, punts := h.MeasureForwarding(3_000)
	if punts != 0 || fwd < 3_000 {
		t.Fatalf("after faults: forwarded %d, punts %d (want 3000, 0)", fwd, punts)
	}
	assertPuntInvariant(t, h, "after injected flow-mod failures")
}

// TestChaosMidSessionDisconnect severs the control connection from the
// switch's side mid-session (an injected read fault, not a controller
// death): the supervisor tears the session down, redials immediately — the
// controller is still listening — and the loop keeps converging.
func TestChaosMidSessionDisconnect(t *testing.T) {
	inj := faultinject.New(5)
	// After a handful of reads (HELLO + early echo replies), one read
	// reports a closed connection.
	inj.Set("conn.read", faultinject.Rule{After: 5, Count: 1, Drop: true})
	h, err := experiments.NewChaosHarness(experiments.ChaosConfig{
		Hosts:        32,
		Seed:         5,
		EchoInterval: 5 * time.Millisecond,
		Injector:     inj,
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	defer h.Close()

	if err := h.WaitSessions(2, 10*time.Second); err != nil {
		t.Fatalf("no reconnect after injected disconnect: %v", err)
	}
	if err := h.WaitState(controller.SupervisorUp, 5*time.Second); err != nil {
		t.Fatalf("supervisor stuck after reconnect: %v", err)
	}
	if inj.Fired("conn.read") != 1 {
		t.Fatalf("read fault fired %d times, want 1", inj.Fired("conn.read"))
	}
	if _, err := h.Converge(8, 10*time.Second); err != nil {
		t.Fatalf("converge after disconnect: %v", err)
	}
	fwd, punts := h.MeasureForwarding(3_000)
	if punts != 0 || fwd < 3_000 {
		t.Fatalf("after disconnect: forwarded %d, punts %d (want 3000, 0)", fwd, punts)
	}
	assertPuntInvariant(t, h, "after mid-session disconnect")
}

// TestChaosPuntStormFilter arms the punt-storm filter over the live loop: a
// storm of one unlearnable microflow passes its first punt and has every
// repeat withheld at the worker, and the harness's counter-invariant checks
// (run at every PollDrain and WaitQuiet) see the withheld punts accounted.
func TestChaosPuntStormFilter(t *testing.T) {
	h, err := experiments.NewChaosHarness(experiments.ChaosConfig{
		Hosts:            32,
		Seed:             13,
		PuntFilter:       64,
		PuntFilterWindow: 1 << 20,
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	defer h.Close()
	storm := uint64(h.InjectStorm(400))
	h.PollDrain()
	if err := h.WaitQuiet(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := h.SW.Stats(); st.Punts != 1 || st.PuntFiltered != storm-1 {
		t.Fatalf("storm of %d: %d punts queued, %d filtered (want 1 and %d)", storm, st.Punts, st.PuntFiltered, storm-1)
	}
}
