package dpdk

import (
	"runtime"
	"testing"

	"eswitch/internal/slowpath"
)

// checkPuntInvariant asserts the failure plane's accounting identity (the
// canonical statement lives on WorkerStats.CheckInvariants).
func checkPuntInvariant(t *testing.T, sw *Switch, phase string) {
	t.Helper()
	if err := sw.Stats().CheckInvariants(true); err != nil {
		t.Fatalf("%s: %v", phase, err)
	}
}

// TestFailStandaloneSuppressesPuntsKeepsForwarding: in fail-standalone a
// pure punt is suppressed (not queued, not dropped-counted) and the
// forwarding half of a dual verdict keeps transmitting.
func TestFailStandaloneSuppressesPuntsKeepsForwarding(t *testing.T) {
	sw := NewSwitchWithConfig(puntingDatapath, SwitchConfig{NumPorts: 2, RingSize: 64, Queues: 1})
	rings := sw.armPuntRings(16, 0)
	sw.SetFailMode(FailStandalone)
	port1, _ := sw.Port(1)
	port2, _ := sw.Port(2)

	port1.InjectOn(AutoQueue, []byte{0x01}) // pure forward
	port1.InjectOn(AutoQueue, []byte{0x02}) // pure punt
	port1.InjectOn(AutoQueue, []byte{0x03}) // forward AND punt
	sw.PollOnce(nil)

	st := sw.Stats()
	if st.Forwarded != 2 {
		t.Fatalf("forwarded %d, want 2 (0x01 and the dual verdict's output half)", st.Forwarded)
	}
	if got := port2.DrainTx(); got != 2 {
		t.Fatalf("TX staged %d frames, want 2", got)
	}
	if st.ToCtrl != 2 || st.PuntSuppressed != 2 {
		t.Fatalf("punt halves not suppressed: toCtrl %d, suppressed %d (want 2, 2)", st.ToCtrl, st.PuntSuppressed)
	}
	if st.Punts != 0 || st.PuntDrops != 0 {
		t.Fatalf("standalone queued punts: %d/%d", st.Punts, st.PuntDrops)
	}
	if st.Dropped != 0 {
		t.Fatalf("standalone dropped %d packets", st.Dropped)
	}
	var rec slowpath.PuntRecord
	if rings[0].Pop(&rec) {
		t.Fatalf("a punt reached the ring while degraded: %+v", rec)
	}
	checkPuntInvariant(t, sw, "standalone")

	// Back to normal: the same traffic punts again.
	sw.SetFailMode(FailNormal)
	port1.InjectOn(AutoQueue, []byte{0x02})
	sw.PollOnce(nil)
	if st := sw.Stats(); st.Punts != 1 {
		t.Fatalf("punt after recovery not queued: %+v", st)
	}
	if !rings[0].Pop(&rec) {
		t.Fatal("recovered punt missing from the ring")
	}
	checkPuntInvariant(t, sw, "recovered")
}

// TestFailSecureDropsControllerDependentPackets: in fail-secure any packet
// whose verdict punts — even one that also forwards — is discarded whole,
// counted in both PuntSuppressed and Dropped; purely local verdicts are
// untouched.
func TestFailSecureDropsControllerDependentPackets(t *testing.T) {
	sw := NewSwitchWithConfig(puntingDatapath, SwitchConfig{NumPorts: 2, RingSize: 64, Queues: 1})
	sw.armPuntRings(16, 0)
	sw.SetFailMode(FailSecure)
	port1, _ := sw.Port(1)
	port2, _ := sw.Port(2)

	port1.InjectOn(AutoQueue, []byte{0x01}) // pure forward: unaffected
	port1.InjectOn(AutoQueue, []byte{0x02}) // pure punt: dropped
	port1.InjectOn(AutoQueue, []byte{0x03}) // dual verdict: dropped whole, output half included
	sw.PollOnce(nil)

	st := sw.Stats()
	if st.Forwarded != 1 {
		t.Fatalf("forwarded %d, want 1 (only the purely local verdict)", st.Forwarded)
	}
	if got := port2.DrainTx(); got != 1 {
		t.Fatalf("TX staged %d frames, want 1", got)
	}
	if st.ToCtrl != 2 || st.PuntSuppressed != 2 || st.Dropped != 2 {
		t.Fatalf("secure accounting: toCtrl %d, suppressed %d, dropped %d (want 2, 2, 2)",
			st.ToCtrl, st.PuntSuppressed, st.Dropped)
	}
	if st.Punts != 0 {
		t.Fatalf("secure queued %d punts", st.Punts)
	}
	checkPuntInvariant(t, sw, "secure")
}

// TestPuntStormFilter: with the filter armed, the first punt of a microflow
// passes, repeats within the window are withheld (counted in PuntFiltered),
// a distinct microflow is not collaterally filtered, and the entry expires
// after `window` idle polls.
func TestPuntStormFilter(t *testing.T) {
	const window = 3
	sw := NewSwitchWithConfig(puntingDatapath, SwitchConfig{NumPorts: 2, RingSize: 64, Queues: 1})
	rings := sw.armPuntRings(64, 0)
	sw.SetPuntFilter(64, window)
	port1, _ := sw.Port(1)

	// The filter lives in worker-private state, and PollOnce's worker keeps
	// it across calls — garbage collections between polls included.
	poll := func() {
		sw.PollOnce(nil)
		runtime.GC()
		runtime.GC()
	}

	elephant := []byte{0x02, 0xaa, 0xbb, 0xcc}
	mouse := []byte{0x02, 0x11, 0x22, 0x33}

	// First punt passes; the repeat in the very next poll is filtered.
	port1.InjectOn(AutoQueue, elephant)
	poll()
	port1.InjectOn(AutoQueue, elephant)
	poll()
	st := sw.Stats()
	if st.Punts != 1 || st.PuntFiltered != 1 {
		t.Fatalf("after repeat: queued %d, filtered %d (want 1, 1)", st.Punts, st.PuntFiltered)
	}

	// A distinct microflow still punts — the filter is per-flow, not global.
	port1.InjectOn(AutoQueue, mouse)
	poll()
	if st := sw.Stats(); st.Punts != 2 {
		t.Fatalf("distinct flow was filtered: %+v", st)
	}

	// A filtered repeat keeps its entry fresh, so expiry needs `window`+1
	// punt-free polls after the LAST suppressed attempt.
	for i := 0; i <= window; i++ {
		poll()
	}
	port1.InjectOn(AutoQueue, elephant)
	poll()
	st = sw.Stats()
	if st.Punts != 3 {
		t.Fatalf("expired entry still filtering: queued %d, filtered %d", st.Punts, st.PuntFiltered)
	}
	if st.PuntFiltered != 1 {
		t.Fatalf("filtered count drifted: %d", st.PuntFiltered)
	}
	checkPuntInvariant(t, sw, "storm filter")

	// Everything that passed is actually in the ring: elephant, mouse,
	// elephant-after-expiry.
	var rec slowpath.PuntRecord
	n := 0
	for rings[0].Pop(&rec) {
		n++
	}
	if n != 3 {
		t.Fatalf("ring holds %d punts, want 3", n)
	}
}

// TestPuntFilterOffByDefault: without SetPuntFilter every repeat punts — the
// filter must be strictly opt-in.
func TestPuntFilterOffByDefault(t *testing.T) {
	sw := NewSwitchWithConfig(puntingDatapath, SwitchConfig{NumPorts: 2, RingSize: 64, Queues: 1})
	sw.armPuntRings(64, 0)
	port1, _ := sw.Port(1)
	for i := 0; i < 5; i++ {
		port1.InjectOn(AutoQueue, []byte{0x02, 0xaa})
		sw.PollOnce(nil)
	}
	st := sw.Stats()
	if st.Punts != 5 || st.PuntFiltered != 0 {
		t.Fatalf("unarmed filter interfered: queued %d, filtered %d", st.Punts, st.PuntFiltered)
	}
}
