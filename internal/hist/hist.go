// Package hist provides the fixed-size log-bucketed latency histogram the
// telemetry plane hangs off the forwarding workers and the slow-path punt
// rings.
//
// The shape follows HdrHistogram's idea (constant-size array, constant-time
// record, bounded relative error) reduced to the simplest form that keeps
// the recording path eligible for the zero-lock/zero-alloc worker loop: one
// power-of-two bucket per bit-length of the observed value.  Bucket i holds
// the values whose bit length is i — the half-open range [2^(i-1), 2^i) —
// so the reported quantiles carry at most 2x relative error, which is ample
// for "is the poll loop microseconds or milliseconds" questions while the
// record path is a bits.Len64 plus two atomic adds on writer-owned cache
// lines.
//
// Concurrency contract: each Histogram has exactly one writer (the worker
// or ring consumer that owns it); any goroutine may Snapshot it
// concurrently.  Folding across workers happens on the reader side
// (Snapshot.AddSnapshot), mirroring how the dpdk substrate folds its
// per-worker forwarding counters.
package hist

import (
	"math/bits"
	"sync/atomic"
)

// numBuckets bounds the histogram: bucket numBuckets-1 absorbs everything of
// 2^46 ns (~20 hours) and above, far past any poll-loop duration of interest.
const numBuckets = 48

// Histogram is a single-writer log-bucketed histogram of uint64 samples
// (the telemetry plane records nanoseconds).  The zero value is ready to
// use.  It must not be copied after first use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one sample.  Constant time, no locks, no allocations;
// must only be called by the histogram's single writer.
func (h *Histogram) Observe(v uint64) {
	i := bits.Len64(v)
	if i >= numBuckets {
		i = numBuckets - 1
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// AddTo folds the histogram's current contents into s (s += h).  Safe to
// call from any goroutine while the writer keeps observing; each bucket is
// read atomically (the total may be mid-update torn across buckets, which is
// the same staleness every folded counter in the switch accepts).
func (h *Histogram) AddTo(s *Snapshot) {
	for i := range h.counts {
		s.Counts[i] += h.counts[i].Load()
	}
	s.Sum += h.sum.Load()
}

// Snapshot is a plain-value copy of a histogram, foldable across workers.
type Snapshot struct {
	Counts [numBuckets]uint64
	Sum    uint64
}

// AddSnapshot folds o into s.
func (s *Snapshot) AddSnapshot(o *Snapshot) {
	for i := range o.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Sum += o.Sum
}

// Count returns the total number of recorded samples.
func (s *Snapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// BucketUpperBound returns the largest value bucket i can hold: 0 for
// bucket 0 and 2^i-1 for the rest.  The last bucket is a catch-all; its
// nominal bound is still returned.
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(i) - 1
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) of the
// recorded samples: the upper bound of the bucket the quantile falls in.
// With no samples it returns 0.
func (s *Snapshot) Quantile(q float64) uint64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the sample the quantile names.
	rank := uint64(q*float64(total-1)) + 1
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			return BucketUpperBound(i)
		}
	}
	return BucketUpperBound(numBuckets - 1)
}

// Mean returns the arithmetic mean of the recorded samples (0 when empty).
// Unlike the quantiles it is exact: the sum accumulates the raw values.
func (s *Snapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}
