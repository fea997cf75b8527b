package faultinject

import (
	"errors"
	"sync/atomic"
	"time"

	"eswitch/internal/dpdk"
)

// errKilled is the fatal error a killed backend reports from every queue
// when Kill was called without a specific error.
var errKilled = errors.New("faultinject: backend killed")

// FaultBackend wraps a packet I/O backend with fault points:
//
//	backend.rx — every RxBurst
//	backend.tx — every TxBurst
//
// A firing point stalls for the rule's Delay (modelling a wedged syscall —
// the worker watchdog's stall detector is tested against this), then records
// the rule's Err as queue q's fatal error and returns 0 (modelling a dying
// fd — the port supervisor's link-state machine is tested against this), or
// with Drop set silently returns 0 (an RX/TX black hole).
//
// Beyond rule-driven faults, Kill cuts the whole backend at once — every
// queue reports the kill error, bursts and injection return nothing, and
// Reopen fails — until Revive, after which the next Reopen succeeds and
// clears the recorded queue errors.  Kill/Revive/Reopen is how the chaos
// harness makes the supervisor's backoff schedule observable: while killed,
// each reopen attempt fails and burns one backoff delay; after Revive the
// next attempt restores the link.
type FaultBackend struct {
	be     dpdk.PortBackend
	in     *Injector
	killed atomic.Pointer[error]
	qerrs  []atomic.Pointer[error]
}

// Backend threads the backend.rx / backend.tx points through be.
func Backend(be dpdk.PortBackend, in *Injector) *FaultBackend {
	return &FaultBackend{be: be, in: in, qerrs: make([]atomic.Pointer[error], be.Queues())}
}

// Kill cuts the backend: every queue reports err (errKilled when nil) as
// fatal, bursts return 0, injection reports full, and Reopen fails until
// Revive.
func (b *FaultBackend) Kill(err error) {
	if err == nil {
		err = errKilled
	}
	b.killed.Store(&err)
}

// Revive lifts a Kill: the backend stops failing, but recorded queue errors
// stand until Reopen clears them (the supervisor's recovery path, not the
// injection harness, owns the transition back to Up).
func (b *FaultBackend) Revive() { b.killed.Store(nil) }

// Queues delegates to the wrapped backend.
func (b *FaultBackend) Queues() int { return b.be.Queues() }

// RxBurst evaluates backend.rx, then delegates.  Rule errors are recorded
// as queue q's fatal error and surface through QueueError, as a real
// backend's dying fd would.
func (b *FaultBackend) RxBurst(q int, out [][]byte) int {
	if b.killed.Load() != nil {
		return 0
	}
	if o := b.in.eval("backend.rx"); o.fired {
		if o.delay > 0 {
			time.Sleep(o.delay)
		}
		if o.err != nil {
			err := o.err
			b.qerrs[q].CompareAndSwap(nil, &err)
			return 0
		}
		if o.drop {
			return 0
		}
	}
	return b.be.RxBurst(q, out)
}

// TxBurst evaluates backend.tx, then delegates.  A firing Err marks the
// queue fatal and reports the frames as not accepted (the caller's TX
// policy decides what to do with them, as with real backpressure).
func (b *FaultBackend) TxBurst(q int, frames [][]byte) int {
	if b.killed.Load() != nil {
		return 0
	}
	if o := b.in.eval("backend.tx"); o.fired {
		if o.delay > 0 {
			time.Sleep(o.delay)
		}
		if o.err != nil {
			err := o.err
			b.qerrs[q].CompareAndSwap(nil, &err)
			return 0
		}
		if o.drop {
			return len(frames) // black hole: claimed transmitted, never sent
		}
	}
	return b.be.TxBurst(q, frames)
}

// Stats delegates to the wrapped backend.
func (b *FaultBackend) Stats() dpdk.PortStats { return b.be.Stats() }

// QueueError reports the kill error, then any recorded rule error for q,
// then whatever the wrapped backend reports.
func (b *FaultBackend) QueueError(q int) error {
	if errp := b.killed.Load(); errp != nil {
		return *errp
	}
	if errp := b.qerrs[q].Load(); errp != nil {
		return *errp
	}
	return b.be.QueueError(q)
}

// Close delegates to the wrapped backend.
func (b *FaultBackend) Close() error { return b.be.Close() }

// Reopen fails while the backend is killed (each failed attempt burns one
// of the supervisor's backoff delays); once revived it clears the recorded
// queue errors and delegates to the wrapped backend's Reopen, if any.
func (b *FaultBackend) Reopen() error {
	if errp := b.killed.Load(); errp != nil {
		return *errp
	}
	for i := range b.qerrs {
		b.qerrs[i].Store(nil)
	}
	if ro, ok := b.be.(dpdk.ReopenableBackend); ok {
		return ro.Reopen()
	}
	return nil
}

// InjectOn delegates to the wrapped backend's injection extension,
// reporting full while killed (traffic generators see a dead port).
func (b *FaultBackend) InjectOn(q int, frame []byte) bool {
	if b.killed.Load() != nil {
		return false
	}
	if ib, ok := b.be.(dpdk.InjectableBackend); ok {
		return ib.InjectOn(q, frame)
	}
	return false
}

// RxQueueLen delegates to the wrapped backend's injection extension.
func (b *FaultBackend) RxQueueLen(q int) int {
	if ib, ok := b.be.(dpdk.InjectableBackend); ok {
		return ib.RxQueueLen(q)
	}
	return 0
}

// DrainTx delegates to the wrapped backend's injection extension.
func (b *FaultBackend) DrainTx() int {
	if ib, ok := b.be.(dpdk.InjectableBackend); ok {
		return ib.DrainTx()
	}
	return 0
}

// TransmitSlow delegates to the wrapped backend's slow-path extension,
// reporting failure while killed.
func (b *FaultBackend) TransmitSlow(frame []byte) bool {
	if b.killed.Load() != nil {
		return false
	}
	if sp, ok := b.be.(dpdk.SlowPathTransmitter); ok {
		return sp.TransmitSlow(frame)
	}
	return false
}
