package dpdk

import (
	"runtime"
	"sync"
	"time"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/slowpath"
)

// latSampleEvery is the burst-duration sampling decimation: with latency
// sampling armed (SetLatencySampling), one classifyBurst call in
// latSampleEvery is timed.  Two time.Now reads cost a measurable fraction
// of a small burst, so the sampler trades census for a 1-in-N sample —
// statistically identical for a histogram, ~16x cheaper.
const latSampleEvery = 16

func allQueues(n int) []int {
	qs := make([]int, n)
	for i := range qs {
		qs[i] = i
	}
	return qs
}

// workerState is one worker's private memory plane: the RX frame burst, the
// packet structs wrapping it, the verdicts, the worker's queue assignment,
// the per-port TX staging buffers and the worker's statistics counters.
// Everything is allocated once per worker — the buffers are worker-owned
// freelists that retain their capacity across polls — so the polling loop is
// allocation-free in the steady state and shares no mutable memory with any
// other worker.
type workerState struct {
	frames   [][]byte
	packets  []pkt.Packet
	pkts     []*pkt.Packet
	verdicts []openflow.Verdict
	// queues are the RX queue indices this worker owns on every port; txq
	// is the TX queue index it owns (one worker per queue keeps every ring
	// single-producer/single-consumer).
	queues []int
	txq    int
	// txStage stages outgoing frames per output port; it is flushed with
	// one TX burst per port at the end of each poll iteration.
	txStage [][][]byte
	// punt is the worker's slow-path punt ring (nil until the switch arms
	// punt rings; resolved lazily so states built before ArmPuntRings pick
	// their ring up on the next poll).
	punt *slowpath.Ring
	// puntFilter is the worker's private recently-punted filter (nil until
	// SetPuntFilter arms it; adopted lazily like the punt ring): a
	// direct-mapped table of (flow hash, last-punt poll) slots consulted
	// only on the punt path.  pollSeq is the worker's poll-iteration clock
	// the filter's recency window is measured in.
	puntFilter []puntFilterSlot
	pollSeq    uint64
	// latTick decimates burst-duration sampling: with sampling armed, one
	// burst in latSampleEvery is timed (starting with the first, so short
	// tests still observe samples).
	latTick uint64
	// worker is the datapath's registered worker handle; every RX burst is
	// classified through it.
	worker   Worker
	counters *workerCounters
	// hb is the worker's watchdog heartbeat block (nil for the PollOnce
	// worker, whose caller owns its liveness); the worker is its only writer.
	hb *workerHeartbeat
	// staged counts how many of the current burst's frames have completed
	// staging (in classifyBurst's loop or in stage), so panic containment
	// knows how much of the burst to quarantine.
	staged int
	// spin seeds the idle backoff's pause loop; keeping it per-worker (and
	// heap-reachable, which defeats dead-code elimination) means idle
	// workers share no cache line.
	spin uint64
}

// puntFilterSlot is one entry of the per-worker punt-storm filter.  seen is
// the worker's pollSeq at the last punt of this hash (0 = never; pollSeq
// starts at 1).
type puntFilterSlot struct {
	hash uint32
	seen uint64
}

// newWorkerState builds one worker's reusable state with its own registered
// counter block and its own registered worker handle.
func (s *Switch) newWorkerState(queues []int, txq int) *workerState {
	ws := &workerState{
		frames:   make([][]byte, DefaultBurst),
		packets:  make([]pkt.Packet, DefaultBurst),
		pkts:     make([]*pkt.Packet, DefaultBurst),
		verdicts: make([]openflow.Verdict, DefaultBurst),
		queues:   queues,
		txq:      txq,
		txStage:  make([][][]byte, len(s.ports)),
	}
	for i := range ws.packets {
		ws.pkts[i] = &ws.packets[i]
	}
	ws.counters = s.registerCounters()
	ws.worker = s.dp.RegisterWorker()
	return ws
}

// PollOnce performs one run-to-completion iteration of the RunWorkers worker
// over all queues of the given ports: receive a burst from each, classify it
// on the worker's registered handle, and transmit.  It returns the number of
// packets processed.  Passing nil polls every port.  The worker — queue 0's
// TX side, every RX queue, its own counters and handle — is built at the
// first call and kept, so its punt filter and scratch persist across calls.  PollOnce is a single-threaded
// convenience: one caller at a time, never beside RunWorkers; concurrent
// forwarding uses RunWorkers.
func (s *Switch) PollOnce(ports []*Port) int {
	if s.poll == nil {
		s.poll = s.newWorkerState(allQueues(s.queues), 0)
	}
	return s.pollPorts(s.poll, ports)
}

// pollPorts is one poll iteration over caller-owned worker state: for every
// port, drain a burst from each RX queue the worker owns, classify it, stage
// the outgoing frames, then flush the staging buffers with one TX burst per
// port and fold the iteration's tallies into the worker's counters.  The
// classification runs inside the worker's Enter/Exit bracket, the iteration
// takes no locks, and — after warm-up — performs no allocations.
func (s *Switch) pollPorts(ws *workerState, ports []*Port) int {
	if ports == nil {
		ports = s.ports
	}
	if ws.punt == nil && s.punt != nil {
		// Rings armed after this state was built: adopt the worker's ring
		// (one nil-check per poll, nothing on the per-packet path).
		ws.punt = s.punt[ws.txq]
	}
	if ws.puntFilter == nil && s.puntFilterSize > 0 {
		// Same lazy adoption for the punt-storm filter: a one-time
		// allocation per worker state, off the per-packet path.
		ws.puntFilter = make([]puntFilterSlot, s.puntFilterSize)
	}
	// The filter's recency clock: one increment per poll iteration, so a
	// window of N polls corresponds to roughly N bursts of headroom.
	ws.pollSeq++
	// The watchdog heartbeat: one counter bump per poll plus a store of the
	// port being polled (so a stall can be blamed), all single-writer on the
	// worker's own padded cache line.
	hb := ws.hb
	if hb != nil {
		hb.beats.Add(1)
	}
	ws.worker.Enter()
	total := 0
	var tal stageTallies
	// One sampling-gate load per poll iteration; with sampling armed one
	// burst in latSampleEvery pays two clock reads and two atomic adds —
	// still zero-lock and zero-alloc, and <1% of the burst budget.
	sample := s.latSample.Load()
	for _, port := range ports {
		// The port supervisor parks failed ports Down; skipping them here is
		// the workers' entire involvement in the link-state machine (one
		// atomic load per port per poll; Flapping ports keep forwarding).
		if port.link.Load() == uint32(LinkDown) {
			continue
		}
		if hb != nil {
			hb.polling.Store(uint64(port.ID))
		}
		for _, q := range ws.queues {
			if q >= port.nq {
				continue
			}
			n := port.be.RxBurst(q, ws.frames)
			if n == 0 {
				continue
			}
			if sample && ws.latTick%latSampleEvery == 0 {
				ws.latTick++
				t0 := time.Now()
				s.classifyBurst(ws, port, n, &tal)
				ws.counters.lat.Observe(uint64(time.Since(t0)))
			} else {
				if sample {
					ws.latTick++
				}
				s.classifyBurst(ws, port, n, &tal)
			}
			total += n
		}
	}
	if hb != nil {
		hb.polling.Store(0)
	}
	// The epoch bracket covers only classification: the TX flush and the
	// counter folds touch nothing but rings and worker-local memory, so
	// exiting first keeps flow-mod grace periods as short as the walk.
	ws.worker.Exit()
	if total > 0 {
		s.flushTx(ws, &tal)
		tal[cProcessed] = uint64(total)
		ws.counters.publish(&tal)
	}
	return total
}

// classifyBurst wraps one RX burst, classifies it in one call on the
// worker's registered handle — zero-lock, since the worker's Enter pinned the
// snapshot — and stages its verdicts, all wrapped in panic containment: a
// datapath panic (a poison frame tripping a parser or template bug)
// quarantines the burst's unstaged frames — counted, neither forwarded nor
// dropped — and the worker survives to poll the next queue.  The containment
// is a method-value defer (open-coded, no allocation), so the steady-state
// burst path stays zero-lock and zero-alloc.
//
// The staging loop takes the common verdict — exactly one in-range output
// port, no punt — in line: it appends the frame to that port's staging
// buffer and tallies it forwarded, exactly what stage does for that shape.
// Every other shape (punts, several ports, a port out of range, drops) goes
// to stage.  A call per packet costs a third of the substrate, so the
// single-port case stays in this loop rather than in a helper.
func (s *Switch) classifyBurst(ws *workerState, port *Port, n int, tal *stageTallies) {
	ws.staged = 0
	defer ws.containPanic(n)
	for i := 0; i < n; i++ {
		ws.packets[i] = pkt.Packet{Data: ws.frames[i], InPort: port.ID}
	}
	frames, verdicts := ws.frames[:n], ws.verdicts[:n]
	ws.worker.ProcessBurst(ws.pkts[:n], verdicts)
	for i := range verdicts {
		v := &verdicts[i]
		// Port 0 wraps to the largest index: one compare is the range check.
		if len(v.OutPorts) == 1 && !v.ToController && v.OutPorts[0]-1 < uint32(len(ws.txStage)) {
			out := v.OutPorts[0] - 1
			ws.txStage[out] = append(ws.txStage[out], frames[i])
			tal[cForwarded]++
		} else {
			s.stage(ws, v, frames[i], port.ID, tal)
		}
		ws.staged++
	}
}

// containPanic is classifyBurst's deferred recovery: whatever of the burst
// had not completed staging is quarantined — the whole burst when
// classification itself panicked, since staging starts only after it.  The
// worker's epoch bracket (Enter/Exit in pollPorts) stays balanced because
// the panic never escapes the bracket.
func (ws *workerState) containPanic(n int) {
	if r := recover(); r != nil {
		ws.counters.c[cPanics].Add(1)
		if q := n - ws.staged; q > 0 {
			ws.counters.c[cQuarantined].Add(uint64(q))
		}
	}
}

// stage records one verdict: forwarded frames are appended to the per-port
// TX staging buffers (flushed in bursts at the end of the poll iteration),
// punted frames are copied into the worker's slow-path punt ring (when one
// is armed), and the iteration-local tallies are bumped.  Forwarding and
// punting are independent dimensions of a verdict — "output:2,controller"
// both transmits and punts, counting once in each of forwarded and toCtrl —
// so this is a pair of tests, not a three-way switch.
//
// Punted packets additionally pass through the failure plane, none of which
// costs the pure forwarding path anything: under fail-secure the whole
// packet (including its forwarding half) is discarded, under fail-standalone
// the punt half is suppressed while forwarding proceeds, and in normal mode
// the punt-storm filter may withhold a repeat punt of a recently-punted
// microflow.  Every suppressed/filtered punt is counted, preserving
// Punts+PuntDrops+PuntSuppressed+PuntFiltered == ToCtrl.
func (s *Switch) stage(ws *workerState, v *openflow.Verdict, frame []byte, inPort uint32, tal *stageTallies) {
	fwd := v.Forwarded()
	punt := v.ToController
	var mode FailMode
	if punt {
		tal[cToCtrl]++
		mode = FailMode(s.failMode.Load())
		if mode == FailSecure {
			// Controller-dependent packet with no controller: discard it
			// outright, forwarding half included.
			tal[cPuntSuppressed]++
			tal[cDropped]++
			return
		}
	}
	if fwd {
		tal[cForwarded]++
		for _, out := range v.OutPorts {
			if out > 0 && int(out) <= len(ws.txStage) {
				ws.txStage[out-1] = append(ws.txStage[out-1], frame)
			}
		}
	}
	if punt {
		switch {
		case mode == FailStandalone:
			// Installed flows keep forwarding (handled above); the punt
			// half waits for the channel to come back.
			tal[cPuntSuppressed]++
		case ws.punt != nil:
			if ws.puntFilter != nil && ws.puntRepeats(frame, s.puntFilterWindow) {
				tal[cPuntFiltered]++
				break
			}
			// The ring copies the frame into its pre-allocated slot buffer
			// (drop-on-full, counted by the ring), so the recycled RX frame
			// can be reused — or transmitted above — immediately.
			ws.punt.Push(frame, inPort, v.PuntTable, v.PuntReason)
		}
	}
	if !fwd && !punt {
		tal[cDropped]++
	}
}

// puntRepeats consults and updates the worker's punt-storm filter: it
// reports true when this frame's microflow already punted within the last
// `window` polls.  A miss (first punt, expired entry, or a colliding hash
// evicting the previous occupant) records the flow and passes the punt.
// The hash is computed only for punted packets — by definition off the fast
// path — and the filter is worker-private, so this takes no locks and
// allocates nothing.
func (ws *workerState) puntRepeats(frame []byte, window uint64) bool {
	h := pkt.RSSHash(frame)
	slot := &ws.puntFilter[h&uint32(len(ws.puntFilter)-1)]
	if slot.hash == h && slot.seen != 0 && ws.pollSeq-slot.seen <= window {
		slot.seen = ws.pollSeq // a suppressed repeat keeps the entry fresh
		return true
	}
	slot.hash = h
	slot.seen = ws.pollSeq
	return false
}

// flushTx drains the worker's TX staging buffers, one TxBurst per output
// port, preserving receive order within the worker's stream.  A full TX ring
// drops what it did not take, as a NIC's descriptor ring does; the drops are
// tallied into tal and counted on the port.
func (s *Switch) flushTx(ws *workerState, tal *stageTallies) {
	for pi, staged := range ws.txStage {
		if len(staged) == 0 {
			continue
		}
		port := s.ports[pi]
		if over := len(staged) - port.be.TxBurst(ws.txq, staged); over > 0 {
			tal[cTxDrops] += uint64(over)
			port.countTxDrops(over)
		}
		ws.txStage[pi] = staged[:0]
	}
}

// idleBackoff is the workers' idle policy: a short pause-loop spin for the
// first empty polls (latency stays minimal when traffic is merely bursty),
// then cooperative yields so producers are not starved on small machines,
// then brief sleeps once the port set looks genuinely idle.
func (ws *workerState) idleBackoff(idle int) {
	switch {
	case idle < 8:
		x := ws.spin
		for i := 0; i < idle*16; i++ {
			x = x*2862933555777941757 + 3037000493
		}
		ws.spin = x
	case idle < 1024:
		runtime.Gosched()
	default:
		time.Sleep(20 * time.Microsecond)
	}
}

// RunWorkers starts one run-to-completion goroutine ("core") per worker and
// returns a stop function.  Worker w owns RX queue indices q ≡ w (mod
// workers) and TX queue w of every port, so a single hot port's RSS-spread
// traffic scales across all workers while every ring keeps one producer and
// one consumer.  numWorkers is clamped to the per-port queue count.  Each
// worker busy-polls its queues with an idle backoff until stopped.
func (s *Switch) RunWorkers(numWorkers int) (stop func()) {
	numWorkers = s.ClampWorkers(numWorkers)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < numWorkers; w++ {
		var queues []int
		for q := w; q < s.queues; q += numWorkers {
			queues = append(queues, q)
		}
		wg.Add(1)
		go func(queues []int, txq int) {
			defer wg.Done()
			ws := s.newWorkerState(queues, txq)
			defer s.retireCounters(ws.counters)
			defer s.dp.UnregisterWorker(ws.worker)
			ws.hb = s.registerHeartbeat()
			defer s.retireHeartbeat(ws.hb)
			idle := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				if s.pollPorts(ws, nil) == 0 {
					idle++
					ws.idleBackoff(idle)
				} else {
					idle = 0
				}
			}
		}(queues, w)
	}
	return func() {
		close(done)
		wg.Wait()
	}
}
