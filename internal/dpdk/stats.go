package dpdk

import (
	"fmt"
	"sync/atomic"

	"eswitch/internal/hist"
)

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
	// TxDrops counts staged frames a full TX ring did not take.
	TxDrops uint64
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
