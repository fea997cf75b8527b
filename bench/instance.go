package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// Switch geometry, fixed for every workload.
const (
	ringSize  = 1024
	numQueues = 1
)

// instance is one freshly built switch under test.
type instance struct {
	uc    *workload.UseCase
	dp    *core.Datapath
	sw    *dpdk.Switch
	ports []*dpdk.Port // indexed by port ID; ports[0] is unused

	injected uint64 // frames offered to the RX rings
	rejected uint64 // frames the RX rings refused
	drained  uint64 // frames taken off the TX rings
}

// buildInstance runs constructor -> Compile -> NewSwitchWithConfig.  change,
// when not nil, edits the workload's compile options first (the ledger's
// twins: caches off, counters on, metered).
func buildInstance(sp *spec, seed int64, change func(*core.Options)) (*instance, time.Duration, error) {
	uc := sp.build(seed)
	opts := sp.options()
	if change != nil {
		change(&opts)
	}
	t0 := time.Now()
	dp, err := core.Compile(uc.Pipeline, opts)
	compile := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: compile: %w", sp.name, err)
	}
	in := &instance{uc: uc, dp: dp}
	in.attach(dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{
		NumPorts: uc.Pipeline.NumPorts, RingSize: ringSize, Queues: numQueues,
	}))
	return in, compile, nil
}

// attach binds the instance to a switch and indexes its ports by ID.
func (in *instance) attach(sw *dpdk.Switch) {
	in.sw = sw
	in.ports = make([]*dpdk.Port, len(sw.Ports())+1)
	for _, p := range sw.Ports() {
		in.ports[p.ID] = p
	}
}

// inject offers the next n frames of the traffic to the RX rings.
func (in *instance) inject(tr *traffic, n int) {
	for i := 0; i < n; i++ {
		f := tr.next()
		if !in.ports[tr.inPorts[f]].InjectOn(0, tr.frames[f]) {
			in.rejected++
		}
	}
	in.injected += uint64(n)
}

// poll runs the switch until the RX rings are empty.
func (in *instance) poll() {
	for in.sw.PollOnce(nil) > 0 {
	}
}

// drain empties every TX ring.
func (in *instance) drain() {
	for _, p := range in.sw.Ports() {
		in.drained += uint64(p.DrainTx())
	}
}

// round is one untimed inject -> poll -> drain (warm-ups).
func (in *instance) round(tr *traffic) {
	in.inject(tr, roundFrames)
	in.poll()
	in.drain()
}

// apply issues one flow-mod, timing the call from entry to return (return =
// published to every worker), and records the sample in res.
func (in *instance) apply(m flowMod, res *instanceResult) (start, end time.Time) {
	var failed bool
	start = time.Now()
	if m.add {
		failed = in.dp.AddFlow(m.table, m.entry) != nil
		end = time.Now()
		res.addNs = append(res.addNs, float64(end.Sub(start)))
	} else {
		n, err := in.dp.DeleteFlow(m.table, m.match, m.priority)
		end = time.Now()
		failed = err != nil || n != 1
		res.delNs = append(res.delNs, float64(end.Sub(start)))
	}
	res.pairNs[m.pair] += float64(end.Sub(start))
	res.pairCalls[m.pair]++
	res.modsIssued++
	if failed {
		res.modErrors++
	}
	return start, end
}

// counters is a snapshot of the program counters the ledger reports deltas of.
type counters struct {
	cache       core.FlowCacheStats
	mega        core.MegaflowStats
	rebuilds    uint64
	incremental uint64
}

func (in *instance) counters() counters {
	return counters{
		cache:       in.dp.FlowCacheStats(),
		mega:        in.dp.MegaflowStats(),
		rebuilds:    in.dp.Rebuilds(),
		incremental: in.dp.IncrementalUpdates(),
	}
}

// instanceResult is everything one instance measured.
type instanceResult struct {
	calibNs  float64   // host calibration reading taken before the instance
	setupS   []float64 // seconds per cold set-up
	compileS float64
	warmS    float64
	heapMB   float64           // live heap the instance added
	stages   []core.TableStage // as compiled, before any flow-mod

	units  []float64 // forwarding time per unit, ns
	rounds []float64 // poll span per round, ns
	addNs  []float64 // wall time per AddFlow call
	delNs  []float64 // wall time per DeleteFlow call
	// pairNs[i] is the wall time of the add plus the delete of generated
	// entry i, pairCalls[i] how many of the two have been issued.
	pairNs    []float64
	pairCalls []uint8

	phaseWall time.Duration
	before    counters
	after     counters

	modsIssued   int
	modErrors    int
	oracleFrames int
	mismatches   []int32 // flow indexes the oracle disagreed on
	interpNs     float64 // interpreter time per distinct flow checked
	unaccounted  uint64
	injected     uint64
	rejected     uint64
}

// newInstanceResult preallocates every sample buffer, so recording never
// allocates inside a timed phase.
func newInstanceResult(units, mods int) *instanceResult {
	return &instanceResult{
		units:     make([]float64, 0, units),
		rounds:    make([]float64, 0, units*roundsPerUnit),
		addNs:     make([]float64, 0, mods),
		delNs:     make([]float64, 0, mods),
		pairNs:    make([]float64, mods),
		pairCalls: make([]uint8, mods),
	}
}

// modNs is the instance's flow-mod call times in nanoseconds, one per
// generated entry whose add and delete were both issued: the mean of the two
// calls.  Adds and deletes cost very differently (a delete may rebuild the
// table), so single calls are bimodal and a quantile of them describes one
// kind only; per entry the cost is one population.
func (r *instanceResult) modNs() []float64 {
	per := make([]float64, 0, len(r.pairNs))
	for i, ns := range r.pairNs {
		if r.pairCalls[i] == 2 {
			per = append(per, ns/2)
		}
	}
	return per
}

// attempted and failed are the instance's share of the run's operation counts.
func (r *instanceResult) attempted() int {
	return int(r.injected) + r.modsIssued + r.oracleFrames
}

func (r *instanceResult) failed() int {
	return int(r.rejected) + r.modErrors + int(r.unaccounted) + len(r.mismatches)
}

// scale is how much work one instance does around its timed phase.  The
// benchmark always runs fullScale; the tests shrink it.
type scale struct {
	units        int // timed-phase units
	setupK       int // cold set-ups timed
	warmFrames   int
	probeMods    int
	oracleFrames int
	ledgerPass   time.Duration // sampling time of one ledger pass
}

// fullScale is the benchmark's scale for a workload at the given -seconds:
// the workload's fixed unit count, scaled linearly.
func fullScale(sp *spec, seconds int) scale {
	units := sp.units * seconds / defaultSeconds
	if units < 16 {
		units = 16
	}
	return scale{
		units:        units,
		setupK:       sp.setupK,
		warmFrames:   warmupFrames,
		probeMods:    sp.probeMods,
		oracleFrames: oracleFrames,
		ledgerPass:   ledgerPassTime,
	}
}

// runner drives the instances of one workload.
type runner struct {
	sp   *spec
	seed int64
	scale
	cal *calibrator
	tr  *traffic
	rec *recorder // nil unless this run is traced
	res []*instanceResult
	// live is the last instance, kept for the ledger of a traced run.
	live *instance
	// wants memoises the interpreter's verdict per flow across the
	// instances of the run: every instance builds the same pipeline from
	// the same seed and applies the same mods, and the interpreter costs
	// ~250 us per frame on the 10k-entry tables.  wantEntries is the entry
	// count of the pipeline the memo was computed over; an instance whose
	// pipeline differs gets a fresh memo.
	wants       []want
	wantEntries int
}

// want is what the interpreter says happens to one flow's frame.
type want struct {
	known    bool
	outPorts []uint32
	toCtrl   bool
	bad      bool // the compiled per-packet path disagreed with the interpreter
}

// runInstance performs one full instance: host calibration reading, cold
// set-ups, heap baseline, live build, warm-up, heap reading, timed phase,
// flow-mod probe, oracle check.  traced selects span recording
// for this instance; keep leaves the switch open for the ledger.
func (r *runner) runInstance(traced, keep bool) error {
	sp := r.sp
	rec := r.rec
	if !traced {
		rec = nil
	}
	// The mod sequence is generated, and every buffer allocated, before
	// anything is timed or the heap is read.
	nMods := r.probeMods
	if sp.churn {
		nMods = r.units
	}
	mods := sp.mods(rand.New(rand.NewSource(r.seed^0x6d6f64)), nMods)
	res := newInstanceResult(r.units, nMods)
	res.calibNs = r.cal.read()
	root := rec.begin(spanInstance, -1, -1)

	// (1) Cold set-up, K times, each timed on its own.
	sid := rec.begin(spanSetup, root, -1)
	for k := 0; k < r.setupK; k++ {
		// A collection first, untimed: every build then starts at the same
		// point of the GC cycle instead of inheriting the previous one's
		// debt, which moved the 3 ms builds by a factor of 1.5.
		runtime.GC()
		t0 := time.Now()
		cold, _, err := buildInstance(sp, r.seed, nil)
		if err != nil {
			return err
		}
		if err := cold.sw.Close(); err != nil {
			return fmt.Errorf("%s: close: %w", sp.name, err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	rec.end(sid)

	// The generator's frames exist before the heap baseline is read, so the
	// delta below is the switch's own.
	if r.tr == nil {
		var err error
		if r.tr, err = newTraffic(sp.build(r.seed), activeFlows, sp.zipf, r.seed); err != nil {
			return fmt.Errorf("%s: traffic: %w", sp.name, err)
		}
	}
	tr := r.tr
	tr.cursor = 0 // every instance replays the same sequence
	heapBase := liveHeap()

	cid := rec.begin(spanBuild, root, -1)
	in, compile, err := buildInstance(sp, r.seed, nil)
	rec.end(cid)
	if err != nil {
		return err
	}
	res.compileS = compile.Seconds()
	res.stages = in.dp.Stages()

	// (2) Warm-up.
	wid := rec.begin(spanWarm, root, -1)
	t0 := time.Now()
	for i := 0; i < r.warmFrames/roundFrames; i++ {
		in.round(tr)
	}
	res.warmS = time.Since(t0).Seconds()
	rec.end(wid)

	// (3) Live heap the warmed-up instance added to the harness's own.
	res.heapMB = (liveHeap() - heapBase) / (1 << 20)

	// (4) Timed phase.
	res.before = in.counters()
	pid := rec.begin(spanPhase, root, -1)
	phaseStart := time.Now()
	for u := 0; u < r.units; u++ {
		uid := rec.begin(spanUnit, pid, int32(u))
		if sp.churn {
			t0, t1 := in.apply(mods[u], res)
			if rec != nil {
				rec.add(spanFlowMod, uid, int32(u), t0, t1)
			}
		}
		var fwd time.Duration
		for k := 0; k < roundsPerUnit; k++ {
			ta := time.Now()
			in.inject(tr, roundFrames)
			tb := time.Now()
			in.poll()
			tc := time.Now()
			in.drain()
			if rec != nil {
				rec.add(spanInject, uid, int32(u), ta, tb)
				rec.add(spanPoll, uid, int32(u), tb, tc)
				rec.add(spanDrain, uid, int32(u), tc, time.Now())
			}
			fwd += tc.Sub(tb)
			res.rounds = append(res.rounds, float64(tc.Sub(tb)))
		}
		res.units = append(res.units, float64(fwd))
		rec.end(uid)
	}
	res.phaseWall = time.Since(phaseStart)
	rec.end(pid)
	res.after = in.counters()

	// (5) Flow-mod probe against the workload's largest table.
	if !sp.churn {
		mid := rec.begin(spanModProbe, root, -1)
		for _, m := range mods {
			in.apply(m, res)
		}
		rec.end(mid)
		c := in.counters()
		res.after.rebuilds, res.after.incremental = c.rebuilds, c.incremental
	}

	// (6) Oracle check.
	oid := rec.begin(spanOracle, root, -1)
	r.oracle(in, res)
	rec.end(oid)

	st := in.sw.Stats()
	accepted := in.injected - in.rejected
	res.unaccounted = absDiff(st.Processed, accepted) +
		absDiff(st.Forwarded+st.Dropped+st.ToCtrl, st.Processed) +
		// Every verdict these workloads generate names at most one port (the
		// oracle checks the ports), so TX copies equal forwarded packets.
		absDiff(in.drained+st.TxDrops, st.Forwarded)
	res.injected, res.rejected = in.injected, in.rejected

	rec.end(root)
	r.res = append(r.res, res)
	if keep {
		r.live = in
		return nil
	}
	if err := in.sw.Close(); err != nil {
		return fmt.Errorf("%s: close: %w", sp.name, err)
	}
	return nil
}

// liveHeap collects twice (the second collection frees what finalizers and
// pools released in the first) and returns the bytes still allocated.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// rewrites is the part of the parsed header view the actions can rewrite.
type rewrites struct {
	ethDst, ethSrc pkt.MAC
	vlan           bool
	vlanID         uint16
	vlanPCP        uint8
	ipSrc, ipDst   pkt.IPv4
	dscp, ttl      uint8
	l4Src, l4Dst   uint16
	metadata       uint64
}

func rewritesOf(p *pkt.Packet) rewrites {
	h := &p.Headers
	return rewrites{
		ethDst: h.EthDst, ethSrc: h.EthSrc,
		vlan: h.Has(pkt.ProtoVLAN), vlanID: h.VLANID, vlanPCP: h.VLANPCP,
		ipSrc: h.IPSrc, ipDst: h.IPDst, dscp: h.IPDSCP, ttl: h.IPTTL,
		l4Src: h.L4Src, l4Dst: h.L4Dst,
		metadata: p.Metadata,
	}
}

// oracle replays oracleFrames frames through the switch and through the
// OpenFlow interpreter over the datapath's current pipeline, and compares
// per-port TX sequences, drop / to-controller counts and rewritten headers.
// Disagreements are recorded by flow index.
func (r *runner) oracle(in *instance, res *instanceResult) {
	tr := r.tr
	interp := openflow.NewInterpreter(in.dp.Pipeline())
	if n := in.dp.Pipeline().NumEntries(); r.wants == nil || n != r.wantEntries {
		r.wants, r.wantEntries = make([]want, len(tr.frames)), n
	}
	wants := r.wants
	var interpTime time.Duration
	distinct := 0
	bad := map[int32]bool{}
	expect := make([][]int32, len(in.ports)) // per port: flow indexes in TX order
	batch := make([]int32, roundFrames)
	rings := make([]*dpdk.RingBackend, len(in.ports))
	for id := 1; id < len(in.ports); id++ {
		rings[id], _ = in.ports[id].Backend().(*dpdk.RingBackend)
	}
	for done := 0; done < r.oracleFrames; done += roundFrames {
		var fwd, drop, ctrl uint64
		for i := range expect {
			expect[i] = expect[i][:0]
		}
		for i := range batch {
			f := tr.next()
			batch[i] = f
			w := &wants[f]
			if !w.known {
				var ip, cp pkt.Packet
				var iv, cv openflow.Verdict
				ip = pkt.Packet{Data: tr.frames[f], InPort: tr.inPorts[f]}
				t0 := time.Now()
				interp.Process(&ip, &iv, nil)
				interpTime += time.Since(t0)
				distinct++
				cp = pkt.Packet{Data: tr.frames[f], InPort: tr.inPorts[f]}
				in.dp.Process(&cp, &cv)
				w.known = true
				w.outPorts = append([]uint32(nil), iv.OutPorts...)
				w.toCtrl = iv.ToController
				w.bad = !iv.Equivalent(&cv) || rewritesOf(&ip) != rewritesOf(&cp)
			}
			if w.bad {
				bad[f] = true
			}
			switch {
			case len(w.outPorts) > 0:
				fwd++
			case !w.toCtrl:
				drop++
			}
			if w.toCtrl {
				ctrl++
			}
			for _, p := range w.outPorts {
				if int(p) < len(expect) {
					expect[p] = append(expect[p], f)
				}
			}
			if !in.ports[tr.inPorts[f]].InjectOn(0, tr.frames[f]) {
				in.rejected++
			}
		}
		in.injected += uint64(len(batch))
		before := in.sw.Stats()
		in.poll()
		after := in.sw.Stats()
		// Per-port TX sequences: the ring preserves order, so frame k on a
		// port must be the k-th frame the interpreter sends there.
		for id := 1; id < len(in.ports); id++ {
			ring := rings[id]
			if ring == nil {
				continue
			}
			k := 0
			for {
				frame, ok := ring.TxDequeue(0)
				if !ok {
					break
				}
				in.drained++
				if k >= len(expect[id]) {
					bad[batch[len(batch)-1]] = true
				} else if f := expect[id][k]; &frame[0] != &tr.frames[f][0] {
					bad[f] = true
				}
				k++
			}
			for ; k < len(expect[id]); k++ {
				bad[expect[id][k]] = true
			}
		}
		if after.Forwarded-before.Forwarded != fwd || after.Dropped-before.Dropped != drop ||
			after.ToCtrl-before.ToCtrl != ctrl {
			bad[batch[0]] = true
		}
	}
	res.oracleFrames = r.oracleFrames
	for f := range bad {
		res.mismatches = append(res.mismatches, f)
	}
	if distinct > 0 {
		res.interpNs = float64(interpTime) / float64(distinct)
	}
}
