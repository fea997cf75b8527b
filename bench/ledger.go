package main

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/cpumodel"
	"eswitch/internal/dpdk"
	"eswitch/internal/exacthash"
	"eswitch/internal/lpm"
	"eswitch/internal/ofp"
	"eswitch/internal/openflow"
	"eswitch/internal/ovs"
	"eswitch/internal/perfmodel"
	"eswitch/internal/pkt"
	"eswitch/internal/tss"
)

// The per-layer ledger: every layer metric is obtained from bench/ alone, by
// timing calls into one module's public functions over the workload's own
// frame sequence.  Module name = layer = metric prefix.

const (
	// ledgerPassTime is how long one ledger pass samples in total.  It is
	// split over ledgerRounds sweeps through all the passes, so that a slow
	// stretch of the machine covers a part of every pass rather than the
	// whole of one.
	ledgerPassTime = 500 * time.Millisecond
	ledgerRounds   = 2
	// chunk is the number of packets one ledger sample covers, processed in
	// bursts of burst packets as the switch would.
	chunk = unitFrames
	burst = dpdk.DefaultBurst
	// ledgerWarm is the warm-up of a pass that owns a cache.
	ledgerWarm = 1 << 17
	// meteredFrames is the length of the cycle-model pass.
	meteredFrames = 1 << 18
)

// perLayerUnits lists every per-layer metric with its unit; BENCHMARK.json
// lists the same names and a traced run emits all of them on every workload
// (0 where the workload has no such layer, e.g. tss.lookup_ns on a pipeline
// without a linked-list table).
var perLayerUnits = map[string]string{
	"pkt.parse_ns_pkt":             "ns/pkt",
	"pkt.rss_ns_pkt":               "ns/pkt",
	"core.burst_ns_pkt":            "ns/pkt",
	"core.classify_ns_pkt":         "ns/pkt",
	"core.perpkt_ns_pkt":           "ns/pkt",
	"core.nocache_ns_pkt":          "ns/pkt",
	"core.cache_gain":              "ratio",
	"core.micro_hit_ratio":         "ratio",
	"core.micro_stale_ratio":       "ratio",
	"core.mega_hit_ratio":          "ratio",
	"core.compile_s":               "s",
	"core.warm_s":                  "s",
	"core.tables_direct":           "count",
	"core.tables_hash":             "count",
	"core.tables_lpm":              "count",
	"core.tables_list":             "count",
	"core.flowmod_p50_us":          "us",
	"core.flowmod_add_us":          "us",
	"core.flowmod_del_us":          "us",
	"core.rebuilds":                "count",
	"core.incremental":             "count",
	"lpm.lookup_ns":                "ns",
	"exacthash.lookup_ns":          "ns",
	"tss.lookup_ns":                "ns",
	"dpdk.substrate_ns_pkt":        "ns/pkt",
	"dpdk.inject_ns_pkt":           "ns/pkt",
	"dpdk.drain_ns_pkt":            "ns/pkt",
	"dpdk.poll_ns_pkt":             "ns/pkt",
	"dpdk.unattributed_ns_pkt":     "ns/pkt",
	"dpdk.round_p50_mpps":          "Mpps",
	"dpdk.wall_mpps":               "Mpps",
	"dpdk.round_p99_us":            "us",
	"dpdk.round_p999_us":           "us",
	"dpdk.allocs_per_mpkt":         "1/Mpkt",
	"dpdk.fwd_100k_mpps":           "Mpps",
	"ovs.fwd_mpps":                 "Mpps",
	"ovs.speedup":                  "ratio",
	"cpumodel.cycles_pkt":          "cycles/pkt",
	"cpumodel.llc_miss_pkt":        "1/pkt",
	"perfmodel.cycles_pkt":         "cycles/pkt",
	"openflow.interp_ns_pkt":       "ns/pkt",
	"openflow.oracle_mismatch":     "count",
	"ofp.flowmod_codec_ns":         "ns",
	"telemetry.armed_overhead_pct": "%",
	"trace.overhead_pct":           "%",
	"host.calib_ns":                "ns",
}

// ledger holds the state the passes share.
type ledger struct {
	r    *runner
	in   *instance
	root int32 // span the passes hang under
	out  map[string]float64

	// State kept across the rounds: the samples of every pass, the twin
	// instances the passes compile, the baseline switch, allocation tallies.
	samples  map[string][]float64
	twins    map[string]*instance
	baseline *ovs.Switch
	wideTr   *traffic // the issue's 100 000-flow set, for dpdk.fwd_100k_mpps
	mallocs  map[string]uint64
	frames   map[string]int

	pkts [chunk]pkt.Packet
	ptrs [chunk]*pkt.Packet
	vs   [chunk]openflow.Verdict
	sink uint64
}

// fill loads the next chunk of the frame sequence into the packet buffers.
func (l *ledger) fill() {
	tr := l.r.tr
	for i := range l.pkts {
		f := tr.next()
		l.pkts[i] = pkt.Packet{Data: tr.frames[f], InPort: tr.inPorts[f]}
	}
}

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// record adds one timing to the samples a pass accumulates over the rounds.
func (l *ledger) record(label string, d time.Duration) {
	s := l.samples[label]
	if s == nil {
		// Room for both rounds of the I/O passes, whose allocation count
		// must not include this slice growing.
		s = make([]float64, 0, 1<<14)
	}
	l.samples[label] = append(s, float64(d))
}

// pass samples work for one round's share of the pass time and returns the
// time per op over all samples of the pass so far, reduced like the timed
// phase's units (fastOf).  prep runs untimed before every sample; work
// returns the time it measured.
func (l *ledger) pass(label string, ops int, prep func(), work func() time.Duration) float64 {
	id := l.r.rec.labelled(spanLedger, l.root, label)
	for start := time.Now(); time.Since(start) < l.r.ledgerPass/ledgerRounds; {
		if prep != nil {
			prep()
		}
		l.record(label, work())
	}
	l.r.rec.end(id)
	return fastOf(l.samples[label]) / float64(ops)
}

// bursts calls f on each burst-sized slice of the chunk buffers.
func (l *ledger) bursts(f func(ps []*pkt.Packet, vs []openflow.Verdict)) {
	for b := 0; b < chunk; b += burst {
		f(l.ptrs[b:b+burst], l.vs[b:b+burst])
	}
}

// workerNs measures a registered worker's Enter / ProcessBurst(32) / Exit
// over the frame sequence, after warming the worker's private caches.
func (l *ledger) workerNs(label string, dp *core.Datapath) float64 {
	w := dp.RegisterWorker()
	defer dp.UnregisterWorker(w)
	run := func() {
		l.bursts(func(ps []*pkt.Packet, vs []openflow.Verdict) {
			w.Enter()
			w.ProcessBurst(ps, vs)
			w.Exit()
		})
	}
	for i := 0; i < ledgerWarm; i += chunk {
		l.fill()
		run()
	}
	return l.pass(label, chunk, l.fill, func() time.Duration { return timed(run) })
}

// ioNs are the per-packet costs of one switch's three I/O steps.
type ioNs struct {
	inject, poll, drain float64
	allocsPerMpkt       float64
}

// ioPass drives units of the given traffic through a switch, sampling inject,
// poll and drain separately, and counts heap allocations over the whole pass.
func (l *ledger) ioPass(label string, in *instance, tr *traffic) ioNs {
	id := l.r.rec.labelled(spanLedger, l.root, label)
	injLabel, pollLabel, drainLabel := label+"/inject", label+"/poll", label+"/drain"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	frames := 0
	for start := time.Now(); time.Since(start) < l.r.ledgerPass/ledgerRounds; {
		var ti, tp, td time.Duration
		for k := 0; k < roundsPerUnit; k++ {
			t0 := time.Now()
			in.inject(tr, roundFrames)
			t1 := time.Now()
			in.poll()
			t2 := time.Now()
			in.drain()
			ti += t1.Sub(t0)
			tp += t2.Sub(t1)
			td += time.Since(t2)
		}
		l.record(injLabel, ti)
		l.record(pollLabel, tp)
		l.record(drainLabel, td)
		frames += unitFrames
	}
	runtime.ReadMemStats(&after)
	l.r.rec.end(id)
	l.mallocs[label] += after.Mallocs - before.Mallocs
	l.frames[label] += frames
	return ioNs{
		inject:        fastOf(l.samples[injLabel]) / unitFrames,
		poll:          fastOf(l.samples[pollLabel]) / unitFrames,
		drain:         fastOf(l.samples[drainLabel]) / unitFrames,
		allocsPerMpkt: float64(l.mallocs[label]) / (float64(l.frames[label]) / 1e6),
	}
}

// largestStage returns the compiled table with the most entries among those
// built on the given template, and its declarative flow table.
func largestStage(dp *core.Datapath, kind core.TemplateKind) *openflow.FlowTable {
	var best *openflow.FlowTable
	for _, st := range dp.Stages() {
		if st.Template != kind {
			continue
		}
		if t := dp.Pipeline().Table(st.ID); t != nil && (best == nil || t.Len() > best.Len()) {
			best = t
		}
	}
	return best
}

// parsedFlows parses one packet per flow to the given layer.
func (l *ledger) parsedFlows(layer pkt.Layer) []pkt.Packet {
	tr := l.r.tr
	ps := make([]pkt.Packet, len(tr.frames))
	for f := range ps {
		ps[f] = pkt.Packet{Data: tr.frames[f], InPort: tr.inPorts[f]}
		pkt.ParseTo(&ps[f], layer)
	}
	return ps
}

// lpmNs builds a standalone DIR-24-8 table from the rules of the workload's
// largest LPM stage and measures LookupBatch over the frames' addresses.
func (l *ledger) lpmNs(dp *core.Datapath) float64 {
	t := largestStage(dp, core.TemplateLPM)
	if t == nil {
		return 0
	}
	var field openflow.Field
	table := lpm.New()
	for i, e := range t.Entries() {
		fields := e.Match.Fields().Fields()
		if len(fields) != 1 {
			continue // the catch-all
		}
		field = fields[0]
		plen, ok := e.Match.IsPrefix(field)
		if !ok {
			continue
		}
		v, _, _ := e.Match.Get(field)
		if err := table.Insert(uint32(v), plen, uint32(i)); err != nil {
			continue
		}
	}
	flows := l.parsedFlows(field.Layer())
	addrs := make([]uint32, chunk)
	values := make([]uint32, chunk)
	depths := make([]uint8, chunk)
	hits := make([]bool, chunk)
	prep := func() {
		for i := range addrs {
			addrs[i] = uint32(openflow.Extract(&flows[l.r.tr.next()], field))
		}
	}
	return l.pass("lpm.lookup", chunk, prep, func() time.Duration {
		return timed(func() {
			for b := 0; b < chunk; b += burst {
				table.LookupBatch(addrs[b:b+burst], values[b:b+burst], depths[b:b+burst], hits[b:b+burst])
			}
		})
	})
}

// hashNs builds a standalone exact-match table from the rules of the
// workload's largest compound-hash stage (key = the stage's match fields,
// one word each) and measures LookupBatch over the frames' keys.
func (l *ledger) hashNs(dp *core.Datapath) float64 {
	t := largestStage(dp, core.TemplateHash)
	if t == nil {
		return 0
	}
	fields := t.MatchFields().Fields()
	if len(fields) == 0 || len(fields) > 4 {
		return 0
	}
	layer := pkt.LayerL2
	for _, f := range fields {
		if f.Layer() > layer {
			layer = f.Layer()
		}
	}
	pack := func(get func(openflow.Field) (uint64, bool)) (exacthash.Key, bool) {
		var w [4]uint64
		for i, f := range fields {
			v, ok := get(f)
			if !ok {
				return exacthash.Key{}, false
			}
			w[i] = v
		}
		return exacthash.Key{W0: w[0], W1: w[1], W2: w[2], W3: w[3]}, true
	}
	table := exacthash.New(t.Len())
	for i, e := range t.Entries() {
		k, ok := pack(func(f openflow.Field) (uint64, bool) {
			v, mask, set := e.Match.Get(f)
			return v & mask, set
		})
		if ok {
			table.Insert(k, uint32(i))
		}
	}
	flows := l.parsedFlows(layer)
	flowKeys := make([]exacthash.Key, len(flows))
	for f := range flows {
		flowKeys[f], _ = pack(func(fl openflow.Field) (uint64, bool) {
			return openflow.Extract(&flows[f], fl), true
		})
	}
	keys := make([]exacthash.Key, chunk)
	values := make([]uint32, chunk)
	hits := make([]bool, chunk)
	var sc exacthash.BatchScratch
	prep := func() {
		for i := range keys {
			keys[i] = flowKeys[l.r.tr.next()]
		}
	}
	return l.pass("exacthash.lookup", chunk, prep, func() time.Duration {
		return timed(func() {
			for b := 0; b < chunk; b += burst {
				table.LookupBatch(keys[b:b+burst], values[b:b+burst], hits[b:b+burst], &sc)
			}
		})
	})
}

// tssNs builds a standalone tuple-space classifier from the rules of the
// workload's largest linked-list stage and measures Lookup per packet.
func (l *ledger) tssNs(dp *core.Datapath) float64 {
	t := largestStage(dp, core.TemplateLinkedList)
	if t == nil {
		return 0
	}
	c := tss.New()
	for i, e := range t.Entries() {
		c.Insert(&tss.Entry{Priority: e.Priority, Match: e.Match, Value: uint32(i)})
	}
	layer := dp.ParserLayer()
	prep := func() {
		l.fill()
		pkt.ParseToBurst(l.ptrs[:], layer)
	}
	return l.pass("tss.lookup", chunk, prep, func() time.Duration {
		return timed(func() {
			for i := range l.pkts {
				if c.Lookup(&l.pkts[i], nil).Entry != nil {
					l.sink++
				}
			}
		})
	})
}

// variant returns a twin instance of the workload with changed options,
// built on first use and kept for the later rounds.
func (l *ledger) variant(key string, change func(*core.Options)) (*instance, error) {
	if in := l.twins[key]; in != nil {
		return in, nil
	}
	in, _, err := buildInstance(l.r.sp, l.r.seed, change)
	if err != nil {
		return nil, err
	}
	l.twins[key] = in
	return in, nil
}

// closeTwins closes the switches of the twin instances.
func (l *ledger) closeTwins() error {
	for key, in := range l.twins {
		if err := in.sw.Close(); err != nil {
			return fmt.Errorf("%s: close %s twin: %w", l.r.sp.name, key, err)
		}
	}
	return nil
}

// run performs one round of every ledger pass on the live (traced) instance.
func (l *ledger) run() error {
	r, in, dp := l.r, l.in, l.in.dp
	sp := r.sp
	for i := range l.pkts {
		l.ptrs[i] = &l.pkts[i]
	}
	put := func(name string, v float64) { l.out[name] = v }

	// pkt: the parser template at the datapath's depth, and the RSS hash.
	layer := dp.ParserLayer()
	put("pkt.parse_ns_pkt", l.pass("pkt.parse", chunk, l.fill, func() time.Duration {
		return timed(func() {
			l.bursts(func(ps []*pkt.Packet, _ []openflow.Verdict) { pkt.ParseToBurst(ps, layer) })
		})
	}))
	put("pkt.rss_ns_pkt", l.pass("pkt.rss", chunk, l.fill, func() time.Duration {
		return timed(func() {
			for i := range l.pkts {
				l.sink += uint64(pkt.RSSHash(l.pkts[i].Data))
			}
		})
	}))

	// core: registered-worker burst path, per-packet path, cache-free twin.
	burstNs := l.workerNs("core.burst", dp)
	put("core.burst_ns_pkt", burstNs)
	put("core.classify_ns_pkt", burstNs-l.out["pkt.parse_ns_pkt"])
	put("core.perpkt_ns_pkt", l.pass("core.perpkt", chunk, l.fill, func() time.Duration {
		return timed(func() {
			for i := range l.pkts {
				dp.Process(&l.pkts[i], &l.vs[0])
			}
		})
	}))
	nocacheNs := burstNs
	if sp.options().FlowCache > 0 {
		bare, err := l.variant("nocache", func(o *core.Options) { o.FlowCache, o.Megaflow = 0, 0 })
		if err != nil {
			return err
		}
		nocacheNs = l.workerNs("core.nocache", bare.dp)
	}
	put("core.nocache_ns_pkt", nocacheNs)
	put("core.cache_gain", nocacheNs/burstNs)

	// Standalone tables, where the pipeline compiles to that template.
	put("lpm.lookup_ns", l.lpmNs(dp))
	put("exacthash.lookup_ns", l.hashNs(dp))
	put("tss.lookup_ns", l.tssNs(dp))

	// dpdk: the live switch's I/O steps; the same loop over a datapath that
	// only names an output port (the substrate's own cost); and over a twin
	// with the observability plane armed.
	live := l.ioPass("dpdk.io", in, r.tr)
	put("dpdk.inject_ns_pkt", live.inject)
	put("dpdk.drain_ns_pkt", live.drain)
	put("dpdk.allocs_per_mpkt", live.allocsPerMpkt)
	substrate := l.twins["substrate"]
	if substrate == nil {
		out := uint32(in.uc.Pipeline.NumPorts)
		substrate = &instance{uc: in.uc}
		substrate.attach(dpdk.NewSwitchWithConfig(dpdk.DatapathFunc(func(_ *pkt.Packet, v *openflow.Verdict) {
			v.Reset()
			v.OutPorts = append(v.OutPorts, out)
		}), dpdk.SwitchConfig{NumPorts: in.uc.Pipeline.NumPorts, RingSize: ringSize, Queues: numQueues}))
		l.twins["substrate"] = substrate
	}
	put("dpdk.substrate_ns_pkt", l.ioPass("dpdk.substrate", substrate, r.tr).poll)
	armed, err := l.variant("armed", func(o *core.Options) { o.UpdateCounters = true })
	if err != nil {
		return err
	}
	armed.sw.SetLatencySampling(true)
	for i := 0; i < ledgerWarm/roundFrames; i++ {
		armed.round(r.tr)
	}
	put("telemetry.armed_overhead_pct", 100*(l.ioPass("telemetry.armed", armed, r.tr).poll/live.poll-1))

	// The issue's geometry: 100 000 flows, and 64k / 4k cache entries where
	// the workload arms caches.  The DRAM-bound point is too noisy on this
	// box to carry a bound, so it is reported here instead.
	wide, err := l.variant("issue", func(o *core.Options) {
		if o.FlowCache > 0 {
			o.FlowCache, o.Megaflow = issueFlowCacheSize, issueMegaflowSize
		}
	})
	if err != nil {
		return err
	}
	if l.wideTr == nil {
		if l.wideTr, err = newTraffic(wide.uc, issueFlows, sp.zipf, r.seed); err != nil {
			return fmt.Errorf("%s: 100k-flow traffic: %w", sp.name, err)
		}
		for i := 0; i < 2*issueFlows/roundFrames; i++ {
			wide.round(l.wideTr)
		}
	}
	put("dpdk.fwd_100k_mpps", 1e3/l.ioPass("dpdk.fwd_100k", wide, l.wideTr).poll)

	// ovs: the flow-caching baseline on the same sequence.
	if l.baseline == nil {
		if l.baseline, err = ovs.New(sp.build(r.seed).Pipeline, ovs.DefaultOptions()); err != nil {
			return fmt.Errorf("%s: ovs baseline: %w", sp.name, err)
		}
	}
	base := l.baseline
	ovsRun := func() {
		for i := range l.pkts {
			base.Process(&l.pkts[i], &l.vs[0])
		}
	}
	for i := 0; i < ledgerWarm; i += chunk {
		l.fill()
		ovsRun()
	}
	ovsNs := l.pass("ovs.process", chunk, l.fill, func() time.Duration { return timed(ovsRun) })
	put("ovs.fwd_mpps", 1e3/ovsNs)
	put("ovs.speedup", ovsNs/burstNs)

	// cpumodel / perfmodel: the paper's predictions beside the measurements.
	// The counts are exact, so one round of them is enough.
	if _, done := l.out["cpumodel.cycles_pkt"]; !done {
		meter := cpumodel.NewMeter(cpumodel.DefaultPlatform())
		metered, err := l.variant("metered", func(o *core.Options) { o.Meter = meter })
		if err != nil {
			return err
		}
		id := r.rec.labelled(spanLedger, l.root, "cpumodel.metered")
		for i := 0; i < meteredFrames; i += chunk {
			l.fill()
			for k := range l.pkts {
				metered.dp.ProcessUnlocked(&l.pkts[k], &l.vs[0])
			}
		}
		r.rec.end(id)
		put("cpumodel.cycles_pkt", meter.CyclesPerPacket())
		put("cpumodel.llc_miss_pkt", meter.LLCMissesPerPacket())
	}
	put("perfmodel.cycles_pkt", perfmodel.FromStages(sp.name, dp.Stages()).Bounds(cpumodel.DefaultPlatform()).MidCycles)

	// ofp: wire codec of the workload's own flow-mods.
	mods := sp.mods(rand.New(rand.NewSource(r.seed^0x6d6f64)), 256)
	fms := make([]ofp.FlowMod, len(mods))
	for i, m := range mods {
		fms[i] = ofp.FlowMod{Command: ofp.FlowModDelete, TableID: m.table, Priority: int32(m.priority), Match: m.match}
		if m.add {
			fms[i].Command = ofp.FlowModAdd
			fms[i].Instructions = m.entry.Instructions
		}
	}
	codecErrs := 0
	put("ofp.flowmod_codec_ns", l.pass("ofp.codec", len(fms), nil, func() time.Duration {
		return timed(func() {
			for _, fm := range fms {
				if _, err := ofp.DecodeFlowMod(ofp.EncodeFlowMod(fm)); err != nil {
					codecErrs++
				}
			}
		})
	}))
	if codecErrs > 0 {
		return fmt.Errorf("%s: %d flow-mods did not survive the ofp codec", sp.name, codecErrs)
	}
	return nil
}

// tracedRun is a -trace run of one workload: instance 1 is traced and feeds
// the ledger, instance 2 runs untraced so the difference prices the tracing.
// It returns the per-layer metrics and writes the span file.
func (r *runner) tracedRun(outDir string, w io.Writer) (map[string]metric, error) {
	r.rec = newRecorder(r.units*(2+3*roundsPerUnit) + 4096)
	if err := r.runInstance(true, true); err != nil {
		return nil, err
	}
	l := &ledger{r: r, in: r.live, out: map[string]float64{},
		samples: map[string][]float64{}, twins: map[string]*instance{},
		mallocs: map[string]uint64{}, frames: map[string]int{}}
	l.root = r.rec.labelled(spanLedger, -1, "bench.ledger")
	var err error
	for round := 0; round < ledgerRounds && err == nil; round++ {
		err = l.run()
	}
	r.rec.end(l.root)
	if cerr := l.closeTwins(); err == nil {
		err = cerr
	}
	if cerr := r.live.sw.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: close: %w", r.sp.name, cerr)
	}
	r.live = nil
	if err != nil {
		return nil, err
	}
	for len(r.res) < tracedInstances {
		if err := r.runInstance(false, false); err != nil {
			return nil, err
		}
	}
	r.fromCounters(l.out)

	path := filepath.Join(outDir, "trace-"+r.sp.name+".json")
	if err := r.rec.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\n-- %s: %d spans written to %s; self time = span - children\n", r.sp.name, len(r.rec.spans), path)
	fmt.Fprintf(w, "  %-22s %9s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, row := range r.rec.selfTimes() {
		fmt.Fprintf(w, "  %-22s %9d %14.3f %14.3f\n", row.name, row.count, float64(row.totalNs)/1e6, float64(row.selfNs)/1e6)
	}

	metrics := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		metrics[name] = metric{Value: l.out[name], Unit: unit}
	}
	return metrics, nil
}

// fromCounters adds the layer metrics that come from the traced instance's
// spans, samples and counter deltas rather than from a ledger pass.
func (r *runner) fromCounters(out map[string]float64) {
	traced, plain := r.res[0], r.res[1]
	tracedNs := fastOf(traced.units)
	out["dpdk.poll_ns_pkt"] = tracedNs / unitFrames
	out["dpdk.unattributed_ns_pkt"] = out["dpdk.poll_ns_pkt"] - out["core.burst_ns_pkt"] - out["dpdk.substrate_ns_pkt"]
	out["trace.overhead_pct"] = 100 * (1 - fastOf(plain.units)/tracedNs)
	out["dpdk.round_p50_mpps"] = unitFrames / median(traced.units) * 1e3
	out["dpdk.wall_mpps"] = float64(len(traced.units)*unitFrames) / float64(traced.phaseWall.Nanoseconds()) * 1e3
	out["dpdk.round_p99_us"] = quantileOf(traced.rounds, 0.99) / 1e3
	out["dpdk.round_p999_us"] = quantileOf(traced.rounds, 0.999) / 1e3

	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	b, a := traced.before, traced.after
	probes := (a.cache.Hits - b.cache.Hits) + (a.cache.Misses - b.cache.Misses)
	out["core.micro_hit_ratio"] = ratio(a.cache.Hits-b.cache.Hits, probes)
	out["core.micro_stale_ratio"] = ratio(a.cache.Stale-b.cache.Stale, probes)
	out["core.mega_hit_ratio"] = ratio(a.mega.Hits-b.mega.Hits, (a.mega.Hits-b.mega.Hits)+(a.mega.Misses-b.mega.Misses))
	out["core.rebuilds"] = float64(a.rebuilds - b.rebuilds)
	out["core.incremental"] = float64(a.incremental - b.incremental)
	out["core.compile_s"] = traced.compileS
	out["core.warm_s"] = traced.warmS
	out["core.flowmod_p50_us"] = median(traced.modNs()) / 1e3
	out["core.flowmod_add_us"] = median(traced.addNs) / 1e3
	out["core.flowmod_del_us"] = median(traced.delNs) / 1e3
	for _, st := range traced.stages {
		switch st.Template {
		case core.TemplateDirectCode:
			out["core.tables_direct"]++
		case core.TemplateHash:
			out["core.tables_hash"]++
		case core.TemplateLPM:
			out["core.tables_lpm"]++
		case core.TemplateLinkedList:
			out["core.tables_list"]++
		}
	}
	out["openflow.interp_ns_pkt"] = traced.interpNs
	out["openflow.oracle_mismatch"] = float64(len(traced.mismatches))
	out["host.calib_ns"] = r.calibNs()
}
