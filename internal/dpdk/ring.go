package dpdk

import (
	"sync/atomic"
)

// Ring is a bounded single-producer/single-consumer queue of frames.
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

// EnqueueBurst adds up to len(frames) frames, returning how many fit.
func (r *Ring) EnqueueBurst(frames [][]byte) int {
	n := 0
	for _, f := range frames {
		if !r.Enqueue(f) {
			break
		}
		n++
	}
	return n
}

// DequeueBurst fills out with up to len(out) frames, returning the count.
func (r *Ring) DequeueBurst(out [][]byte) int {
	n := 0
	for n < len(out) {
		f, ok := r.Dequeue()
		if !ok {
			break
		}
		out[n] = f
		n++
	}
	return n
}
