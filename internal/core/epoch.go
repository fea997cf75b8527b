package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the quiescent-state-based reclamation (QSBR) scheme
// that lets the steady-state forwarding path run without any locks while
// flow-table updates stay safe (§3.4 at multi-core scale).
//
// The contract mirrors DPDK's rte_rcu: each forwarding worker registers one
// WorkerEpoch and brackets every burst with Enter/Exit.  The one writer
// changes what readers can see only with single-word atomic stores: a
// flow-mod on a compound-hash or LPM table stores words of the live table in
// place, and a rebuild or a new snapshot is built off to the side and
// published with one pointer store (the per-table trampoline or the
// datapath-wide snapshot pointer).  synchronize() waits until every
// registered worker has passed a quiescent point (an Exit).  Only after that
// grace period may the writer reuse what it unlinked — an LPM group, a hash
// lane or a value slot a delete retired (update.go) — and a rebuilt pipeline
// is not reported installed before it (recompile).

// WorkerEpoch is the per-worker epoch counter.  The counter is odd while the
// worker is inside a burst (between Enter and Exit) and even while quiescent.
// The trailing padding keeps each worker's counter on its own cache line so
// the per-burst Enter/Exit never false-shares with another core.
type WorkerEpoch struct {
	ctr atomic.Uint64
	_   [56]byte
}

// Enter marks the start of a read-side critical section (one burst).
func (e *WorkerEpoch) Enter() { e.ctr.Add(1) }

// Exit marks a quiescent point: the worker holds no references to any
// datapath state published before this call.
func (e *WorkerEpoch) Exit() { e.ctr.Add(1) }

// epochDomain tracks the registered worker epochs of one Datapath.  The list
// is copy-on-write so synchronize can snapshot it without taking the
// registration lock.
type epochDomain struct {
	mu   sync.Mutex
	list atomic.Pointer[[]*WorkerEpoch]
}

func (d *epochDomain) register() *WorkerEpoch {
	e := &WorkerEpoch{}
	d.mu.Lock()
	old := d.list.Load()
	var next []*WorkerEpoch
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, e)
	d.list.Store(&next)
	d.mu.Unlock()
	return e
}

func (d *epochDomain) unregister(e *WorkerEpoch) {
	d.mu.Lock()
	old := d.list.Load()
	if old != nil {
		next := make([]*WorkerEpoch, 0, len(*old))
		for _, w := range *old {
			if w != e {
				next = append(next, w)
			}
		}
		d.list.Store(&next)
	}
	d.mu.Unlock()
}

// synchronize blocks until every registered worker has passed a quiescent
// point: workers whose counter is even are already quiescent; for the rest we
// wait until the counter moves (an Exit — or a full Exit/Enter pair, which is
// just as good because the re-Entered worker can only see state published
// before we return).  With no registered workers (single-threaded harnesses,
// the update benchmarks) this returns immediately.
func (d *epochDomain) synchronize() {
	lp := d.list.Load()
	if lp == nil {
		return
	}
	for _, w := range *lp {
		v := w.ctr.Load()
		if v&1 == 0 {
			continue
		}
		// A burst is microseconds of work, so a yield loop normally
		// suffices; escalate to short sleeps when the scheduler is
		// oversubscribed (more busy workers than cores) so the writer
		// does not burn its own time slices spinning.
		for spins := 0; w.ctr.Load() == v; spins++ {
			if spins < 128 {
				runtime.Gosched()
			} else {
				time.Sleep(5 * time.Microsecond)
			}
		}
	}
}

// maxPinnedWorkers bounds the free-list of recycled workers behind the
// facade's Process/ProcessBurst entry points; callers beyond the bound wait
// for one to be returned.
const maxPinnedWorkers = 64

// pinGet returns a registered worker for one facade call, recycling from the
// bounded free-list when possible.  Pinned workers carry the full worker-
// local resource plane — epoch, burst scratch, verdict cache — so the
// anonymous facade entry points share no scratch.  At most maxPinnedWorkers
// are ever created: a worker is not cheap (a burst scratch and, on an armed
// pipeline, a verdict cache of Options.FlowCache entries), so
// callers beyond the bound briefly wait for a worker to be returned instead
// of registering and tearing down a transient one per call.
func (d *Datapath) pinGet() *Worker {
	select {
	case w := <-d.pins:
		return w
	default:
	}
	if d.pinned.Add(1) <= maxPinnedWorkers {
		return d.newWorker()
	}
	d.pinned.Add(-1)
	return <-d.pins
}

// pinPut returns a worker to the free-list.  Creation is capped at the
// channel capacity, so the send cannot block; the release path is kept as a
// safety net only.
func (d *Datapath) pinPut(w *Worker) {
	select {
	case d.pins <- w:
	default:
		d.pinned.Add(-1)
		d.releaseWorker(w)
	}
}

// RegisterWorker registers one forwarding worker with the datapath and
// returns its handle: a quiescence epoch plus the worker-local resources
// (burst scratch, verdict cache) the zero-shared-state fast path runs on.  The
// worker must bracket every poll iteration with Enter/Exit and classify
// through the handle's ProcessBurst; flow-table updates wait for all
// registered workers to pass a quiescent point before reusing what they
// unlinked from a table.
func (d *Datapath) RegisterWorker() WorkerHandle { return d.newWorker() }

// UnregisterWorker releases a worker handle (on worker shutdown): its epoch
// leaves the quiescence domain and its cache counters fold into the
// datapath's.  The handle must be in the Exit'ed (quiescent) state.
func (d *Datapath) UnregisterWorker(h WorkerHandle) {
	if w, ok := h.(*Worker); ok {
		d.releaseWorker(w)
	}
}
