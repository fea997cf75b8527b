package experiments

import (
	"fmt"
	"runtime"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// This file is the measured companion of the modelled Fig. 19: instead of
// extrapolating a single-core cycle-model rate, it drives the real dataplane
// substrate — multi-queue RSS ports, per-core burst workers over the epoch-
// swapped compiled datapath, batched TX — over ONE hot port and reports the
// aggregate wall-clock forwarding rate per worker count.  On machines with
// at least as many cores as workers the rate should grow monotonically with
// the worker count; on fewer (two vCPUs that slow each other down, say) the
// workers time-share and the sweep shows nothing, so no record of it is kept.

// scalingPoint is one row of the worker-scaling sweep.
type scalingPoint struct {
	Workers int
	// Mpps is the measured aggregate forwarding rate.
	Mpps float64
	// Processed is how many packets the workers forwarded.
	Processed uint64
}

// scalingHarness is the reusable hot-port driver: a compiled L3 datapath
// behind a multi-queue switch, with the injection frames RSS-pre-steered so
// the producer path is a bare ring enqueue.
type scalingHarness struct {
	sw      *dpdk.Switch
	hot     *dpdk.Port
	frames  [][]byte
	queueOf []int
}

// newScalingHarness compiles the L3 workload (2K prefixes) and prepares the
// pre-steered frame set.
func newScalingHarness(flows int) (*scalingHarness, error) {
	uc := workload.L3UseCase(2000, 8, 2016)
	dp, err := core.Compile(uc.Pipeline, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: uc.Pipeline.NumPorts, RingSize: 8192, Queues: dpdk.DefaultQueues})
	trace := uc.Trace(flows)
	frames := make([][]byte, 4096)
	queueOf := make([]int, len(frames))
	for i := range frames {
		frames[i], _ = trace.Frame(i)
		queueOf[i] = int(pkt.RSSHash(frames[i]) % uint32(sw.NumQueues()))
	}
	hot, err := sw.Port(1)
	if err != nil {
		return nil, err
	}
	return &scalingHarness{sw: sw, hot: hot, frames: frames, queueOf: queueOf}, nil
}

// run starts the given number of workers, injects `packets` frames into the
// hot port, waits for the backlog to drain and returns the aggregate rate.
func (h *scalingHarness) run(workers, packets int) scalingPoint {
	stop := h.sw.RunWorkers(workers)
	defer stop()
	already := h.sw.Stats().Processed

	start := time.Now()
	injected := 0
	for injected < packets {
		before := injected
		for pi := 0; pi < len(h.frames) && injected < packets; pi++ {
			if h.hot.InjectOn(h.queueOf[pi], h.frames[pi]) {
				injected++
			}
		}
		for _, port := range h.sw.Ports() {
			port.DrainTx()
		}
		if injected == before {
			// RX rings full: yield to the workers instead of burning the
			// producer's time slice on failing enqueues.
			runtime.Gosched()
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for h.sw.Stats().Processed < already+uint64(injected) && time.Now().Before(deadline) {
		for _, port := range h.sw.Ports() {
			port.DrainTx()
		}
	}
	elapsed := time.Since(start)
	processed := h.sw.Stats().Processed - already
	return scalingPoint{
		Workers:   workers,
		Mpps:      float64(processed) / elapsed.Seconds() / 1e6,
		Processed: processed,
	}
}

// Fig19Measured runs the worker-scaling sweep on the real substrate (the
// measured companion to the modelled Fig19).
func Fig19Measured(cfg Config) Result {
	packets := 400_000
	counts := []int{1, 2, 4}
	if cfg.Quick {
		packets = 40_000
		counts = []int{1, 2}
	}
	res := Result{
		ID:     "Fig. 19 (measured)",
		Title:  "aggregate packet rate vs workers on ONE hot RSS port (L3, 2K prefixes, real substrate)",
		Header: []string{"workers", "Mpps", "packets"},
	}
	for _, w := range counts {
		// A fresh harness per point: every worker polls its own
		// RX-queue subset of the hot port against the shared datapath.
		h, err := newScalingHarness(10_000)
		if err != nil {
			panic(err)
		}
		pt := h.run(w, packets)
		res.Rows = append(res.Rows, []string{fmtInt(pt.Workers), fmtF(pt.Mpps), fmtInt(int(pt.Processed))})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("wall-clock rates with GOMAXPROCS=%d on %d CPUs — worker counts beyond the CPU count time-share and cannot speed up;", runtime.GOMAXPROCS(0), runtime.NumCPU()),
		"  the producer pre-computes RSS steering (Port.InjectOn) so injection is a bare ring enqueue")
	return res
}
