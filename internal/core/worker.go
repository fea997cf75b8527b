package core

import (
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// This file implements the worker-local resource plane of the compiled
// datapath: every forwarding worker owns a Worker handle bundling the
// per-worker mutable state the hot path needs —
//
//   - its quiescence epoch (WorkerEpoch, epoch.go), which is what lets the
//     burst loop run lock-free under concurrent flow-table updates;
//   - its burst scratch (burstScratch), the NUMA-style private working
//     memory of the burst engine — owned outright, never pooled, never
//     shared with another worker on the steady-state path;
//   - its verdict cache, where the pipeline arms one.
//
// A worker's bursts always run the burst engine, which contains no metering
// at all — whether or not the datapath carries a cycle meter — so registering
// workers adds zero locks, zero atomic read-modify-writes and zero
// allocations per burst.  The same engine serves the facade: Process is a
// burst of one on a pinned worker, and Trace and a metered Process run a
// recording burst of one (Datapath.recordBurst); the meter prices only the
// latter's steps.

// WorkerHandle is the interface a registered forwarding worker holds.  It is
// an alias for the anonymous interface so the dataplane substrate
// (internal/dpdk) can name the same type without importing this package.
type WorkerHandle = interface {
	// Enter marks the start of one burst's read-side critical section.
	Enter()
	// Exit announces a quiescent point.
	Exit()
	// ProcessBurst classifies one burst through the worker's resources; it
	// must run inside the worker's Enter/Exit bracket.
	ProcessBurst(ps []*pkt.Packet, vs []openflow.Verdict)
}

// Worker is one forwarding worker's handle on the compiled datapath: its
// quiescence epoch and its privately owned burst scratch and verdict cache.
// A Worker is single-threaded by contract — exactly one goroutine drives it.
type Worker struct {
	d     *Datapath
	epoch *WorkerEpoch
	// cache is the worker's private verdict cache (flowcache.go), allocated
	// at registration when the pipeline's cache is armed and otherwise once a
	// flow-mod arms it (armCache), so a datapath whose pipeline never arms it
	// pays nothing for Options.FlowCache.  Like the scratch it is owned
	// outright: one writer, no locks, no shared mutable state — only its stat
	// mirrors are read by other goroutines.
	cache *FlowCache
	// scratch is the worker-owned working state of the burst engine.  It
	// lives inside the Worker (one allocation at registration) so the
	// steady-state burst path touches no pool and shares no scratch memory
	// with any other worker.
	scratch burstScratch
}

// newWorker registers a worker: an epoch in the quiescence domain.
func (d *Datapath) newWorker() *Worker {
	w := &Worker{d: d, epoch: d.epochs.register()}
	if d.opts.UpdateCounters {
		// Registered workers accumulate per-flow counter deltas privately
		// and fold them in batches (flowctr.go) instead of paying two
		// shared atomic RMWs per packet.
		w.scratch.ctr = newFlowCtrAccum()
	}
	if d.snap.Load().armed {
		w.armCache()
	}
	return w
}

// armCache gives the worker its verdict cache and the burst engine's cache
// staging, which ride along only for workers that forward through an armed
// pipeline; the cache-off scratch stays lean.  It runs once per worker: at
// registration, or — for a pipeline a later flow-mod arms — in the first
// Enter that sees it armed, ahead of the read-side critical section, so
// zeroing the cache (tens of megabytes at eswitchd's suggested size) delays
// no writer's grace period.
func (w *Worker) armCache() {
	w.cache = newFlowCache(w.d.opts.FlowCache, w.d.opts.UpdateCounters)
	w.scratch.cache = new(cacheScratch)
	w.d.caches.register(w.cache)
}

// releaseWorker retires a worker: its epoch leaves the quiescence domain and
// its cache counters fold into the datapath's cache stats.
func (d *Datapath) releaseWorker(w *Worker) {
	d.epochs.unregister(w.epoch)
	if w.cache != nil {
		d.caches.retire(w.cache)
	}
	if w.scratch.ctr != nil {
		w.scratch.ctr.flush()
	}
}

// Enter marks the start of a read-side critical section (one burst or one
// poll iteration).
func (w *Worker) Enter() {
	if ctr := w.scratch.ctr; ctr != nil {
		ctr.sawBurst = false
	}
	if w.cache == nil && w.d.opts.FlowCache > 0 && w.d.snap.Load().armed {
		w.armCache()
	}
	w.epoch.Enter()
}

// Exit marks a quiescent point: the worker holds no references to any
// datapath state published before this call.  An Exit whose bracket saw no
// traffic also folds any held flow-counter deltas, so per-flow counters go
// exact as soon as a worker idles (flowctr.go).
func (w *Worker) Exit() {
	w.epoch.Exit()
	if ctr := w.scratch.ctr; ctr != nil && !ctr.sawBurst {
		ctr.flush()
	}
}

// ProcessBurst sends a burst of packets through the compiled fast path using
// the worker's own resources: its burst scratch (no pool access) and — when
// the pipeline arms it — its verdict cache, which lets repeat keys skip the
// template walk entirely.  It performs no
// locks and no atomic read-modify-writes — one atomic snapshot load, then
// pure computation — except for the amortized fold of the flow-counter
// accumulator on a counters-enabled datapath (a batch of atomic adds at most
// once per ctrFlushPackets packets, flowctr.go).  A datapath's cycle meter is
// never charged here.  It must be called inside the worker's Enter/Exit
// bracket (or with updates quiesced externally).
func (w *Worker) ProcessBurst(ps []*pkt.Packet, vs []openflow.Verdict) {
	sn := w.d.snap.Load()
	if sn.armed && w.cache == nil {
		// Armed between Enter and the load above (or a caller that quiesces
		// updates externally and never Enters).
		w.armCache()
	}
	for len(ps) > MaxBurst {
		w.d.processBurst(&w.scratch, sn, w.cache, ps[:MaxBurst], vs[:MaxBurst])
		ps, vs = ps[MaxBurst:], vs[MaxBurst:]
	}
	if len(ps) > 0 {
		w.d.processBurst(&w.scratch, sn, w.cache, ps, vs)
	}
	if ctr := w.scratch.ctr; ctr != nil {
		ctr.sawBurst = true
		if ctr.pending >= ctrFlushPackets {
			ctr.flush()
		}
	}
}
