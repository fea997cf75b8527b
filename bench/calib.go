package main

import "time"

// The host calibration kernel: four interleaved pointer chases over a 4 MB
// permutation plus dependent integer arithmetic — the same mix of cache
// misses and ALU work a forwarding burst is made of.  It never touches the
// program under test, so its run time moves only when the machine does.  It
// is timed before every instance and reported with every run as
// host.calib_ns: a run taken on a slow machine is visible as such in its own
// output instead of being blamed on the code.  Nothing is filtered by it.
const (
	calibSlots = 1 << 20
	calibSteps = 64
	calibReps  = 512 // kernel runs per reading; the reading is their median
)

type calibrator struct {
	next []uint32
	cur  uint32
	acc  uint64
	ns   []float64
}

// newCalibrator builds the chase permutation with a fixed LCG: the kernel is
// the same on every run and every seed.
func newCalibrator() *calibrator {
	perm := make([]uint32, calibSlots)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(12345)
	for i := calibSlots - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	c := &calibrator{next: make([]uint32, calibSlots), acc: 1, ns: make([]float64, calibReps)}
	for i := 0; i < calibSlots; i++ {
		c.next[perm[i]] = perm[(i+1)%calibSlots]
	}
	return c
}

// kernel runs the fixed work once (about 4 us on a quiet core).
func (c *calibrator) kernel() {
	const mask = calibSlots - 1
	c0, c1, c2, c3 := c.cur, c.cur+1, c.cur+2, c.cur+3
	a0, a1, a2 := c.acc, c.acc+7, c.acc+13
	next := c.next
	for i := 0; i < calibSteps; i++ {
		c0 = next[c0&mask]
		c1 = next[c1&mask]
		c2 = next[c2&mask]
		c3 = next[c3&mask]
		for k := 0; k < 8; k++ {
			a0 = a0*3 + uint64(c0)
			a1 = a1 ^ (a1 >> 7) + uint64(c1)
			a2 = a2 + a0&a1
		}
	}
	c.cur = c0 ^ c1 ^ c2 ^ c3
	c.acc = a0 ^ a1 ^ a2
}

// read times the kernel calibReps times and returns the median in ns.
func (c *calibrator) read() float64 {
	for i := range c.ns {
		t0 := time.Now()
		c.kernel()
		c.ns[i] = float64(time.Since(t0))
	}
	return median(c.ns)
}
