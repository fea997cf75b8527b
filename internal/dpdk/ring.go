package dpdk

import (
	"sync/atomic"
)

// Ring is a bounded single-producer/single-consumer queue of frames.
//
// The burst operations are the ring's real interface, as in DPDK's rte_ring:
// each burst loads its own index once, loads the other side's index once,
// copies the slots, and publishes its new index with one atomic store.  An
// atomic store is a locked XCHG on amd64, so publishing once per burst
// instead of once per frame is what keeps the ring hand-off cheaper than
// classification.  Slot writes precede the producer's publishing store and
// slot reads follow the consumer's acquiring load, so the frames themselves
// need no synchronisation of their own.
type Ring struct {
	buf  [][]byte
	mask uint64
	head atomic.Uint64 // next slot to read
	tail atomic.Uint64 // next slot to write
}

// NewRing creates a ring with capacity rounded up to a power of two.
func NewRing(capacity int) *Ring {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Ring{buf: make([][]byte, size), mask: uint64(size - 1)}
}

// Capacity returns the usable capacity of the ring.
func (r *Ring) Capacity() int { return len(r.buf) - 1 }

// Len returns the number of frames currently queued.
func (r *Ring) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Enqueue adds one frame, reporting false when the ring is full.
func (r *Ring) Enqueue(frame []byte) bool {
	tail := r.tail.Load()
	if tail-r.head.Load() >= uint64(len(r.buf)-1) {
		return false
	}
	r.buf[tail&r.mask] = frame
	r.tail.Store(tail + 1)
	return true
}

// Dequeue removes one frame, reporting false when the ring is empty.
func (r *Ring) Dequeue() ([]byte, bool) {
	head := r.head.Load()
	if head == r.tail.Load() {
		return nil, false
	}
	frame := r.buf[head&r.mask]
	r.head.Store(head + 1)
	return frame, true
}

// EnqueueBurst adds the longest prefix of frames that fits, returning its
// length.
func (r *Ring) EnqueueBurst(frames [][]byte) int {
	tail := r.tail.Load()
	n := min(uint64(len(frames)), uint64(len(r.buf)-1)-(tail-r.head.Load()))
	if n == 0 {
		return 0
	}
	for i, f := range frames[:n] {
		r.buf[(tail+uint64(i))&r.mask] = f
	}
	r.tail.Store(tail + n)
	return int(n)
}

// DequeueBurst fills out with up to len(out) frames in FIFO order, returning
// the count.
func (r *Ring) DequeueBurst(out [][]byte) int {
	head := r.head.Load()
	n := min(uint64(len(out)), r.tail.Load()-head)
	if n == 0 {
		return 0
	}
	for i := range out[:n] {
		out[i] = r.buf[(head+uint64(i))&r.mask]
	}
	r.head.Store(head + n)
	return int(n)
}

// Discard drops every queued frame with one publishing store, returning how
// many there were.  Consumer side only.
func (r *Ring) Discard() int {
	tail := r.tail.Load()
	n := tail - r.head.Load()
	if n != 0 {
		r.head.Store(tail)
	}
	return int(n)
}
