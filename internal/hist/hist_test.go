package hist

import (
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBucketing pins the bucket function: a value lands in the bucket of
// its bit length, and the bucket's upper bound really is the largest value
// that maps there.
func TestBucketing(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 46, numBuckets - 1}, {^uint64(0), numBuckets - 1},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(c.v)
		var s Snapshot
		h.AddTo(&s)
		for i, n := range s.Counts {
			want := uint64(0)
			if i == c.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("Observe(%d): bucket %d count = %d, want %d", c.v, i, n, want)
			}
		}
		if s.Sum != c.v {
			t.Errorf("Observe(%d): sum = %d", c.v, s.Sum)
		}
	}
	for i := 1; i < numBuckets-1; i++ {
		ub := BucketUpperBound(i)
		if bits.Len64(ub) != i || bits.Len64(ub+1) != i+1 {
			t.Errorf("BucketUpperBound(%d) = %d is not the bucket's largest value", i, ub)
		}
	}
}

// TestFoldExactness checks that folding per-worker histograms loses nothing:
// the folded counts, sum and total equal the per-sample ground truth no
// matter how the samples were spread across writers.
func TestFoldExactness(t *testing.T) {
	const workers, samples = 7, 10_000
	rng := rand.New(rand.NewSource(42))
	hs := make([]*Histogram, workers)
	for i := range hs {
		hs[i] = &Histogram{}
	}
	var wantSum uint64
	wantCounts := make([]uint64, numBuckets)
	for i := 0; i < samples; i++ {
		v := uint64(rng.Int63n(1 << 40))
		if i%97 == 0 {
			v = 0
		}
		hs[i%workers].Observe(v)
		wantSum += v
		b := bits.Len64(v)
		if b >= numBuckets {
			b = numBuckets - 1
		}
		wantCounts[b]++
	}
	// Fold two ways: AddTo off the live histograms and AddSnapshot over
	// copies; both must agree with ground truth.
	var folded Snapshot
	for _, h := range hs {
		h.AddTo(&folded)
	}
	var folded2 Snapshot
	for _, h := range hs {
		var s Snapshot
		h.AddTo(&s)
		folded2.AddSnapshot(&s)
	}
	for _, s := range []*Snapshot{&folded, &folded2} {
		if s.Sum != wantSum {
			t.Fatalf("folded sum = %d, want %d", s.Sum, wantSum)
		}
		if s.Count() != samples {
			t.Fatalf("folded count = %d, want %d", s.Count(), samples)
		}
		for i, c := range s.Counts {
			if c != wantCounts[i] {
				t.Fatalf("bucket %d = %d, want %d", i, c, wantCounts[i])
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	var empty Snapshot
	h.AddTo(&empty)
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %d", got)
	}
	// 100 samples of 100ns, 10 of ~100µs: p50 must sit in 100ns's bucket,
	// p99+ in the tail's.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100_000)
	}
	var s Snapshot
	h.AddTo(&s)
	if got := s.Quantile(0.5); got != BucketUpperBound(bits.Len64(100)) {
		t.Errorf("p50 = %d", got)
	}
	if got := s.Quantile(0.99); got != BucketUpperBound(bits.Len64(100_000)) {
		t.Errorf("p99 = %d", got)
	}
	if s.Quantile(0) > s.Quantile(0.5) || s.Quantile(0.5) > s.Quantile(1) {
		t.Errorf("quantiles not monotonic: %d %d %d", s.Quantile(0), s.Quantile(0.5), s.Quantile(1))
	}
	if got := s.Mean(); got < 100 || got > 100_000 {
		t.Errorf("mean = %v out of sample range", got)
	}
}

// TestConcurrentSnapshot runs the single-writer contract under the race
// detector: one writer per histogram observing flat out, concurrent readers
// snapshotting and folding.  Snapshots must be internally plausible
// (sum-of-counts never exceeds the writer's published total).
func TestConcurrentSnapshot(t *testing.T) {
	const workers = 4
	hs := make([]*Histogram, workers)
	for i := range hs {
		hs[i] = &Histogram{}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func(h *Histogram) {
			defer wg.Done()
			v := uint64(1)
			for i := 0; i < 1000 || !stop.Load(); i++ {
				h.Observe(v)
				v = v*2862933555777941757 + 3037000493 // cheap LCG spread
			}
		}(h)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var folded Snapshot
				for _, h := range hs {
					h.AddTo(&folded)
				}
				_ = folded.Quantile(0.99)
				_ = folded.Mean()
			}
		}()
	}
	stopped := make(chan struct{})
	go func() { wg.Wait(); close(stopped) }()
	// Writers run until the readers are done; bound the whole thing.
	for i := 0; i < 200; i++ {
		var s Snapshot
		hs[0].AddTo(&s)
	}
	stop.Store(true)
	<-stopped
	var final Snapshot
	for _, h := range hs {
		h.AddTo(&final)
	}
	if final.Count() == 0 {
		t.Fatal("writers recorded nothing")
	}
}
