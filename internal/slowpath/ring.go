// Package slowpath is the switch's slow-path subsystem: the rate-decoupled
// channel between the compiled fast path and the OpenFlow control plane.
//
// The fast path only handles the flows the pipeline already knows; everything
// else carries a ToController verdict and must become a PacketIn without ever
// slowing forwarding down (the OVS lesson: a miss storm must not sink the
// fast path, cf. internal/ovs/slowpath.go's megaflow slow path and BOFUSS's
// switch↔controller loop).  The subsystem has two halves:
//
//   - per-worker punt Rings (this file): bounded single-producer/single-
//     consumer rings of punt records with pre-allocated per-slot frame
//     buffers.  A forwarding worker that sees a ToController verdict copies
//     the frame (frames are recycled buffers owned by the traffic source or
//     TX path) plus its in-port, punt reason and originating table into its
//     own ring — no locks, no allocations, drop-on-full with a per-ring drop
//     counter, so a controller that stops reading costs the fast path one
//     bounded memcpy per punt at worst;
//
//   - a Service (service.go): a single goroutine that drains the rings
//     round-robin under a token-bucket pps limiter (OVS-style controller
//     rate limiting), encodes PacketIn messages onto the control channel
//     through a buffer-id window, and executes PacketOut action lists —
//     including output:TABLE, which re-injects the frame through the
//     compiled pipeline.
package slowpath

import (
	"sync/atomic"
	"time"

	"eswitch/internal/hist"
	"eswitch/internal/openflow"
)

// defaultFrameCap is the largest frame payload a ring slot stores; longer
// frames are truncated on punt (the evaluation traffic is minimum-size
// frames, and OpenFlow PacketIns routinely carry a truncated prefix).
const defaultFrameCap = 2048

// DefaultRingCapacity is the per-worker punt ring depth used when the caller
// does not size it explicitly.  Size rings WELL above the RX burst (32): a
// ring smaller than the punt bursts arriving between service drains lets the
// burst's leading flows monopolize the slots pass after pass while every
// flow behind them drops — a discovery livelock for reactive controllers,
// not just lost PacketIns.
const DefaultRingCapacity = 1024

// PuntRecord is one punted packet as the slow-path consumer sees it.
type PuntRecord struct {
	// Frame is the consumer-owned copy of the punted frame (its capacity is
	// recycled across Pops).
	Frame  []byte
	InPort uint32
	// TotalLen is the punted frame's original length: Frame may be a
	// slot-capacity-truncated prefix, and PacketIn encoding preserves the
	// on-the-wire length through this field (miss_send_len semantics).
	TotalLen uint32
	Table    openflow.TableID
	Reason   openflow.PuntReason
}

// puntSlot is one ring slot.  Its frame buffer is allocated once at ring
// construction and reused for every punt that lands in the slot, which is
// what keeps the producer path allocation-free.
type puntSlot struct {
	buf      []byte // len = copied bytes, cap = frameCap
	inPort   uint32
	totalLen uint32 // frame length before slot-capacity truncation
	table    uint16
	reason   uint8
	// pushNS is the producer's wall clock at Push (UnixNano), 0 when
	// latency sampling is off; the consumer turns it into the punt's
	// queueing latency on Pop.
	pushNS int64
}

// Ring is a bounded single-producer/single-consumer punt ring: exactly one
// forwarding worker pushes, exactly one slow-path service pops.  Producer
// and consumer share nothing but the head/tail indices; the push path takes
// no locks, performs no atomic read-modify-writes and allocates nothing.
type Ring struct {
	slots    []puntSlot
	mask     uint64
	frameCap int

	head atomic.Uint64 // next slot to read (consumer-owned)
	tail atomic.Uint64 // next slot to write (producer-owned)

	// Producer-local tallies and their atomic mirrors: the producer bumps
	// the locals and publishes them with plain stores (no RMWs), any
	// goroutine may read the mirrors.
	pushedL, dropsL uint64
	pushed, drops   atomic.Uint64

	// sampleLat arms punt-latency sampling: Push stamps the slot, the
	// single consumer observes push→pop queueing latency into lat on Pop.
	// Off by default so the punt path pays nothing until the telemetry
	// plane asks for it.
	sampleLat atomic.Bool
	lat       hist.Histogram
}

// NewRing returns a punt ring with capacity rounded up to a power of two and
// per-slot frame buffers of frameCap bytes (defaultFrameCap when <= 0).
func NewRing(capacity, frameCap int) *Ring {
	if capacity < 2 {
		capacity = 2
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	if frameCap <= 0 {
		frameCap = defaultFrameCap
	}
	r := &Ring{slots: make([]puntSlot, size), mask: uint64(size - 1), frameCap: frameCap}
	for i := range r.slots {
		r.slots[i].buf = make([]byte, 0, frameCap)
	}
	return r
}

// Capacity returns the usable capacity of the ring.
func (r *Ring) Capacity() int { return len(r.slots) - 1 }

// Len returns the number of punt records currently queued.
func (r *Ring) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Push copies one punted packet into the ring (truncating the frame to the
// slot capacity).  A full ring drops the punt and counts it; the producer
// never blocks.
func (r *Ring) Push(frame []byte, inPort uint32, table openflow.TableID, reason openflow.PuntReason) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.slots)-1) {
		r.dropsL++
		r.drops.Store(r.dropsL)
		return false
	}
	s := &r.slots[tail&r.mask]
	n := len(frame)
	if n > r.frameCap {
		n = r.frameCap
	}
	s.buf = append(s.buf[:0], frame[:n]...)
	s.inPort = inPort
	s.totalLen = uint32(len(frame))
	s.table = uint16(table)
	s.reason = uint8(reason)
	if r.sampleLat.Load() {
		s.pushNS = time.Now().UnixNano()
	} else {
		s.pushNS = 0
	}
	// The tail store publishes the filled slot to the consumer.
	r.tail.Store(tail + 1)
	r.pushedL++
	r.pushed.Store(r.pushedL)
	return true
}

// Pop copies the oldest punt record into rec (reusing rec.Frame's capacity),
// reporting false when the ring is empty.
func (r *Ring) Pop(rec *PuntRecord) bool {
	head := r.head.Load()
	if head == r.tail.Load() {
		return false
	}
	s := &r.slots[head&r.mask]
	rec.Frame = append(rec.Frame[:0], s.buf...)
	rec.InPort = s.inPort
	rec.TotalLen = s.totalLen
	rec.Table = openflow.TableID(s.table)
	rec.Reason = openflow.PuntReason(s.reason)
	if s.pushNS != 0 {
		if d := time.Now().UnixNano() - s.pushNS; d >= 0 {
			// The consumer is the histogram's single writer.
			r.lat.Observe(uint64(d))
		}
	}
	// The slot's contents were copied out; releasing it hands the buffer
	// back to the producer.
	r.head.Store(head + 1)
	return true
}

// SetLatencySampling arms (or disarms) punt-latency sampling: with it on,
// every Push stamps its slot and every Pop records the punt's ring-queueing
// latency.  The producer pays one clock read per punt — still lock-free and
// allocation-free — so it is off until the telemetry plane enables it.
func (r *Ring) SetLatencySampling(on bool) { r.sampleLat.Store(on) }

// LatencyAddTo folds the ring's punt-latency histogram (nanoseconds from
// Push to Pop) into s.  All zero until SetLatencySampling(true).
func (r *Ring) LatencyAddTo(s *hist.Snapshot) { r.lat.AddTo(s) }

// Pushed returns how many punts were successfully enqueued.
func (r *Ring) Pushed() uint64 { return r.pushed.Load() }

// Drops returns how many punts were dropped because the ring was full.
func (r *Ring) Drops() uint64 { return r.drops.Load() }
