// Package-level benchmarks: one benchmark per evaluation table/figure of the
// paper plus the ablation benchmarks called out in DESIGN.md.  The benchmarks
// measure the real Go implementations (ns/op on the machine running them);
// the deterministic cycle-model numbers behind the figures are produced by
// cmd/eswitch-experiments and recorded in EXPERIMENTS.md.
package eswitch

import (
	"fmt"
	"testing"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/cpumodel"
	"eswitch/internal/dpdk"
	"eswitch/internal/experiments"
	"eswitch/internal/ofp"
	"eswitch/internal/openflow"
	"eswitch/internal/ovs"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/slowpath"
	"eswitch/internal/telemetry"
	"eswitch/internal/workload"
)

// benchES compiles the use case with ESWITCH and measures packets/op.
func benchES(b *testing.B, uc *workload.UseCase, flows int) {
	b.Helper()
	opts := core.DefaultOptions()
	opts.Decompose = uc.WantsDecomposition
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		b.Fatal(err)
	}
	benchTrace(b, uc.Trace(flows), dp.ProcessUnlocked, flows)
}

// benchESBurst compiles the use case with ESWITCH and measures the burst
// fast path: the trace is replayed in 32-packet bursts (DPDK's customary
// burst size) through a registered worker's ProcessBurst.
func benchESBurst(b *testing.B, uc *workload.UseCase, flows int) {
	b.Helper()
	opts := core.DefaultOptions()
	opts.Decompose = uc.WantsDecomposition
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		b.Fatal(err)
	}
	benchTraceBurst(b, uc.Trace(flows), dp, flows)
}

func benchTraceBurst(b *testing.B, trace *pktgen.Trace, dp *core.Datapath, warmup int) {
	b.Helper()
	const burst = dpdk.DefaultBurst
	packets := make([]pkt.Packet, burst)
	ps := make([]*pkt.Packet, burst)
	for i := range packets {
		ps[i] = &packets[i]
	}
	vs := make([]openflow.Verdict, burst)
	if warmup > 200_000 {
		warmup = 200_000
	}
	// No flow-mod runs beside the benchmark, so one read-side bracket spans
	// the whole run instead of costing two atomic adds per burst.
	w := dp.RegisterWorker()
	defer dp.UnregisterWorker(w)
	w.Enter()
	defer w.Exit()
	for i := 0; i < warmup; i += burst {
		for j := 0; j < burst; j++ {
			trace.Next(ps[j])
		}
		w.ProcessBurst(ps, vs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		n := burst
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			trace.Next(ps[j])
		}
		w.ProcessBurst(ps[:n], vs[:n])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
}

// benchOVS runs the same trace over the flow-caching baseline.
func benchOVS(b *testing.B, uc *workload.UseCase, flows int) {
	b.Helper()
	sw, err := ovs.New(uc.Pipeline, ovs.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	benchTrace(b, uc.Trace(flows), sw.ProcessUnlocked, flows)
}

func benchTrace(b *testing.B, trace *pktgen.Trace, process func(*pkt.Packet, *openflow.Verdict), warmup int) {
	b.Helper()
	var p pkt.Packet
	var v openflow.Verdict
	if warmup > 200_000 {
		warmup = 200_000
	}
	for i := 0; i < warmup; i++ {
		trace.Next(&p)
		process(&p, &v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Next(&p)
		process(&p, &v)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
}

// --- Fig. 3: megaflow generation ------------------------------------------------

func BenchmarkFig03_MegaflowArrivalOrder(b *testing.B) {
	opts := ovs.DefaultOptions()
	opts.ConservativeTransportMask = false
	bld := pkt.NewBuilder(128)
	frames := make([][]byte, len(workload.Fig3Seq1))
	for i, port := range workload.Fig3Seq1 {
		frames[i] = pkt.Clone(bld.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 1, Dst: 2}, pkt.L4Opts{Src: 9999, Dst: port}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := ovs.New(workload.Fig3Pipeline(), opts)
		if err != nil {
			b.Fatal(err)
		}
		var v openflow.Verdict
		for _, frame := range frames {
			sw.ProcessUnlocked(&pkt.Packet{Data: frame, InPort: 1}, &v)
		}
	}
}

// --- Fig. 9: template lookup cost ----------------------------------------------

func BenchmarkFig09_TemplateLookup(b *testing.B) {
	build := func(n int) *openflow.Pipeline {
		pl := openflow.NewPipeline(2)
		for i := 1; i <= n; i++ {
			pl.Table(0).AddFlow(10, openflow.NewMatch().
				Set(openflow.FieldVLANID, 3).
				Set(openflow.FieldIPSrc, uint64(pkt.IPv4FromOctets(10, 0, 0, 3))).
				Set(openflow.FieldUDPDst, uint64(i)), openflow.Apply(openflow.Output(1)))
		}
		pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
		return pl
	}
	for _, n := range []int{1, 2, 4, 8} {
		for _, tmpl := range []struct {
			name string
			max  int
		}{{"direct", 1 << 20}, {"hash", -1}} {
			b.Run(fmt.Sprintf("%s/entries=%d", tmpl.name, n), func(b *testing.B) {
				opts := core.DefaultOptions()
				opts.DirectCodeMaxEntries = tmpl.max
				dp, err := core.Compile(build(n), opts)
				if err != nil {
					b.Fatal(err)
				}
				bld := pkt.NewBuilder(128)
				frame := pkt.Clone(bld.UDPPacket(pkt.EthernetOpts{VLAN: 3},
					pkt.IPv4Opts{Src: pkt.IPv4FromOctets(10, 0, 0, 3), Dst: 9}, pkt.L4Opts{Src: 1, Dst: uint16(n)}))
				var v openflow.Verdict
				p := pkt.Packet{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p = pkt.Packet{Data: frame, InPort: 1}
					dp.ProcessUnlocked(&p, &v)
				}
			})
		}
	}
}

// --- Figs. 10–13: packet-rate sweeps --------------------------------------------

func BenchmarkFig10_L2(b *testing.B) {
	for _, size := range []int{10, 1000} {
		for _, flows := range []int{100, 100_000} {
			uc := workload.L2UseCase(size, 4)
			b.Run(fmt.Sprintf("eswitch/table=%d/flows=%d", size, flows), func(b *testing.B) { benchES(b, uc, flows) })
			b.Run(fmt.Sprintf("eswitch-burst/table=%d/flows=%d", size, flows), func(b *testing.B) { benchESBurst(b, uc, flows) })
			b.Run(fmt.Sprintf("ovs/table=%d/flows=%d", size, flows), func(b *testing.B) { benchOVS(b, uc, flows) })
		}
	}
}

func BenchmarkFig11_L3(b *testing.B) {
	for _, prefixes := range []int{1000} {
		for _, flows := range []int{100, 100_000} {
			uc := workload.L3UseCase(prefixes, 8, 2016)
			b.Run(fmt.Sprintf("eswitch/prefixes=%d/flows=%d", prefixes, flows), func(b *testing.B) { benchES(b, uc, flows) })
			b.Run(fmt.Sprintf("eswitch-burst/prefixes=%d/flows=%d", prefixes, flows), func(b *testing.B) { benchESBurst(b, uc, flows) })
			b.Run(fmt.Sprintf("ovs/prefixes=%d/flows=%d", prefixes, flows), func(b *testing.B) { benchOVS(b, uc, flows) })
		}
	}
}

func BenchmarkFig12_LoadBalancer(b *testing.B) {
	for _, services := range []int{100} {
		for _, flows := range []int{100, 100_000} {
			uc := workload.LoadBalancerUseCase(services)
			b.Run(fmt.Sprintf("eswitch/services=%d/flows=%d", services, flows), func(b *testing.B) { benchES(b, uc, flows) })
			b.Run(fmt.Sprintf("eswitch-burst/services=%d/flows=%d", services, flows), func(b *testing.B) { benchESBurst(b, uc, flows) })
			b.Run(fmt.Sprintf("ovs/services=%d/flows=%d", services, flows), func(b *testing.B) { benchOVS(b, uc, flows) })
		}
	}
}

func benchGatewayConfig() workload.GatewayConfig {
	cfg := workload.DefaultGatewayConfig()
	cfg.Prefixes = 2000 // keep the benchmark setup time reasonable
	return cfg
}

func BenchmarkFig13_Gateway(b *testing.B) {
	uc := workload.GatewayUseCase(benchGatewayConfig())
	for _, flows := range []int{1000, 100_000} {
		b.Run(fmt.Sprintf("eswitch/flows=%d", flows), func(b *testing.B) { benchES(b, uc, flows) })
		b.Run(fmt.Sprintf("eswitch-burst/flows=%d", flows), func(b *testing.B) { benchESBurst(b, uc, flows) })
		b.Run(fmt.Sprintf("ovs/flows=%d", flows), func(b *testing.B) { benchOVS(b, uc, flows) })
	}
}

// --- Figs. 15–16: cache misses and latency via the simulated hierarchy ----------

func BenchmarkFig15_LLC(b *testing.B) {
	uc := workload.GatewayUseCase(benchGatewayConfig())
	for _, flows := range []int{1000, 100_000} {
		b.Run(fmt.Sprintf("eswitch/flows=%d", flows), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
			dp, err := core.Compile(uc.Pipeline, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchTrace(b, uc.Trace(flows), dp.ProcessUnlocked, flows)
			b.ReportMetric(opts.Meter.LLCMissesPerPacket(), "LLCmiss/pkt")
		})
		b.Run(fmt.Sprintf("ovs/flows=%d", flows), func(b *testing.B) {
			opts := ovs.DefaultOptions()
			opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
			sw, err := ovs.New(uc.Pipeline, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchTrace(b, uc.Trace(flows), sw.ProcessUnlocked, flows)
			b.ReportMetric(opts.Meter.LLCMissesPerPacket(), "LLCmiss/pkt")
		})
	}
}

func BenchmarkFig16_Latency(b *testing.B) {
	uc := workload.GatewayUseCase(benchGatewayConfig())
	for _, flows := range []int{1000, 100_000} {
		b.Run(fmt.Sprintf("eswitch/flows=%d", flows), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
			dp, err := core.Compile(uc.Pipeline, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchTrace(b, uc.Trace(flows), dp.ProcessUnlocked, flows)
			b.ReportMetric(opts.Meter.CyclesPerPacket(), "modelcycles/pkt")
		})
		b.Run(fmt.Sprintf("ovs/flows=%d", flows), func(b *testing.B) {
			opts := ovs.DefaultOptions()
			opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
			sw, err := ovs.New(uc.Pipeline, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchTrace(b, uc.Trace(flows), sw.ProcessUnlocked, flows)
			b.ReportMetric(opts.Meter.CyclesPerPacket(), "modelcycles/pkt")
		})
	}
}

// --- Fig. 17/18: update processing ----------------------------------------------

func BenchmarkFig17_Updates(b *testing.B) {
	pl := workload.LoadBalancerUseCase(1000).Pipeline
	entries := make([]*openflow.FlowEntry, 0, pl.NumEntries())
	for _, t := range pl.Tables() {
		for _, e := range t.Entries() {
			entries = append(entries, e)
		}
	}
	b.Run("eswitch-direct-install", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dp, err := core.Compile(openflow.NewPipeline(4), core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range entries {
				if err := dp.AddFlow(0, e.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(entries)), "flows/install")
	})
	b.Run("ovs-direct-install", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sw, err := ovs.New(openflow.NewPipeline(4), ovs.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range entries {
				if err := sw.AddFlow(0, e.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(entries)), "flows/install")
	})
}

func BenchmarkFig18_UpdateLoad(b *testing.B) {
	uc := workload.GatewayUseCase(benchGatewayConfig())
	makeRoute := func(i int) (*openflow.Match, int) {
		m := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(pkt.IPv4FromOctets(203, byte(i>>8), byte(i), 0)), 24)
		return m, 24
	}
	b.Run("eswitch-forward-with-updates", func(b *testing.B) {
		dp, err := core.Compile(uc.Pipeline, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		trace := uc.Trace(1000)
		var p pkt.Packet
		var v openflow.Verdict
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trace.Next(&p)
			dp.ProcessUnlocked(&p, &v)
			if i%100 == 0 {
				m, plen := makeRoute(i / 100)
				dp.AddFlow(workload.GatewayTableRouting, openflow.NewEntry(plen, m, openflow.Apply(openflow.Output(2))))
			}
		}
	})
	b.Run("ovs-forward-with-updates", func(b *testing.B) {
		sw, err := ovs.New(uc.Pipeline, ovs.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		trace := uc.Trace(1000)
		var p pkt.Packet
		var v openflow.Verdict
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trace.Next(&p)
			sw.ProcessUnlocked(&p, &v)
			if i%100 == 0 {
				m, plen := makeRoute(i / 100)
				sw.AddFlow(workload.GatewayTableRouting, openflow.NewEntry(plen, m, openflow.Apply(openflow.Output(2))))
			}
		}
	})
}

// --- Fig. 19: multi-core scaling -------------------------------------------------

func BenchmarkFig19_MultiCore(b *testing.B) {
	uc := workload.L3UseCase(2000, 8, 2016)
	for _, cores := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("eswitch/cores=%d", cores), func(b *testing.B) {
			dp, err := core.Compile(uc.Pipeline, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			trace := uc.Trace(10_000)
			frames := make([][]byte, 4096)
			for i := range frames {
				frames[i], _ = trace.Frame(i)
			}
			// Passing the compiled datapath itself (not a func adapter)
			// lets the workers drive RX burst → ProcessBurst → TX burst.
			sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: uc.Pipeline.NumPorts, RingSize: 8192, Queues: dpdk.DefaultQueues})
			stop := sw.RunWorkers(cores)
			defer stop()
			b.SetParallelism(1)
			b.ResetTimer()
			injected := 0
			for injected < b.N {
				for pi := 0; pi < len(frames) && injected < b.N; pi++ {
					port, _ := sw.Port(1 + uint32(injected%uc.Pipeline.NumPorts))
					if port.InjectOn(dpdk.AutoQueue, frames[pi]) {
						injected++
					}
				}
				for _, port := range sw.Ports() {
					port.DrainTx()
				}
			}
			// Wait for the workers to finish the backlog.
			for sw.Stats().Processed < uint64(b.N) {
				for _, port := range sw.Ports() {
					port.DrainTx()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
		})
	}
}

// --- Ablations (DESIGN.md §6) ----------------------------------------------------

func BenchmarkAblationDirectCodeThreshold(b *testing.B) {
	uc := workload.L2UseCase(4, 4)
	for _, threshold := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.DirectCodeMaxEntries = threshold
			dp, err := core.Compile(uc.Pipeline, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchTrace(b, uc.Trace(100), dp.ProcessUnlocked, 100)
		})
	}
}

func BenchmarkAblationKeyInlining(b *testing.B) {
	uc := workload.L2UseCase(4, 4)
	for _, inline := range []bool{true, false} {
		b.Run(fmt.Sprintf("inline=%v", inline), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.DirectCodeMaxEntries = 16
			opts.InlineKeys = inline
			opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
			dp, err := core.Compile(uc.Pipeline, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchTrace(b, uc.Trace(100), dp.ProcessUnlocked, 100)
			b.ReportMetric(opts.Meter.CyclesPerPacket(), "modelcycles/pkt")
		})
	}
}

func BenchmarkAblationDecomposition(b *testing.B) {
	uc := workload.LoadBalancerUseCase(100)
	for _, decompose := range []bool{false, true} {
		b.Run(fmt.Sprintf("decompose=%v", decompose), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Decompose = decompose
			dp, err := core.Compile(uc.Pipeline, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchTrace(b, uc.Trace(10_000), dp.ProcessUnlocked, 10_000)
		})
	}
}

func BenchmarkAblationParserSpecialization(b *testing.B) {
	uc := workload.L2UseCase(1000, 4)
	for _, specialize := range []bool{true, false} {
		b.Run(fmt.Sprintf("specialize=%v", specialize), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.SpecializeParser = specialize
			dp, err := core.Compile(uc.Pipeline, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchTrace(b, uc.Trace(1000), dp.ProcessUnlocked, 1000)
		})
	}
}

func BenchmarkAblationMicroflow(b *testing.B) {
	uc := workload.GatewayUseCase(benchGatewayConfig())
	for _, enabled := range []bool{true, false} {
		b.Run(fmt.Sprintf("microflow=%v", enabled), func(b *testing.B) {
			opts := ovs.DefaultOptions()
			opts.EnableMicroflow = enabled
			sw, err := ovs.New(uc.Pipeline, opts)
			if err != nil {
				b.Fatal(err)
			}
			benchTrace(b, uc.Trace(1000), sw.ProcessUnlocked, 1000)
		})
	}
}

// --- Microflow verdict cache -----------------------------------------------------

// benchFlowCacheDrive measures the registered-worker burst path — the path
// the dpdk workers run — against a pre-compiled datapath.  The cache-off rows
// use the identical driver over a cache-free compile, so the on/off delta
// isolates the microflow cache itself.
func benchFlowCacheDrive(b *testing.B, dp *core.Datapath, uc *workload.UseCase, flows int, zipfS float64, cacheOn bool) {
	b.Helper()
	trace := uc.Trace(flows)
	if zipfS > 0 {
		if err := trace.UseZipf(zipfS, 42); err != nil {
			b.Fatal(err)
		}
	}
	w := dp.RegisterWorker()
	defer dp.UnregisterWorker(w)
	const burst = dpdk.DefaultBurst
	packets := make([]pkt.Packet, burst)
	ps := make([]*pkt.Packet, burst)
	for i := range packets {
		ps[i] = &packets[i]
	}
	vs := make([]openflow.Verdict, burst)
	// Two passes over the flow set (capped) warm both the lookup structures
	// and the cache, so the measured region is steady state for on and off.
	warmup := 2 * flows
	if warmup < 20_000 {
		warmup = 20_000
	}
	if warmup > 250_000 {
		warmup = 250_000
	}
	for i := 0; i < warmup; i += burst {
		for j := 0; j < burst; j++ {
			trace.Next(ps[j])
		}
		w.Enter()
		w.ProcessBurst(ps, vs)
		w.Exit()
	}
	// The datapath (and its monotonic cache-stats fold) is shared across
	// sub-benchmarks and warmups, so the row's hit rate must come from a
	// before/after delta over the measured region only.
	before := dp.FlowCacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		n := burst
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			trace.Next(ps[j])
		}
		w.Enter()
		w.ProcessBurst(ps[:n], vs[:n])
		w.Exit()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
	if cacheOn {
		after := dp.FlowCacheStats()
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if hits+misses > 0 {
			b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit%")
		}
	}
}

// benchFlowCacheEntries is the cache-on size of the BenchmarkFlowCache rows,
// shared with experiments.FlowCacheSweep so the CI-tracked rows and the
// regenerated figure always measure the same cache.
const benchFlowCacheEntries = experiments.FlowCacheEntries

// benchmarkFlowCacheRows runs the cache on/off × uniform/Zipf(1.1) ×
// flows={100,100K} grid over one use case.  The use case is built once and
// compiled twice (cache off / cache on) up front — at the 100K-entry scale
// these workloads run at, per-sub-benchmark construction would dominate the
// run — and each sub-benchmark registers a fresh worker (fresh cache).
func benchmarkFlowCacheRows(b *testing.B, uc *workload.UseCase) {
	var dps [2]*core.Datapath
	for i, entries := range []int{0, benchFlowCacheEntries} {
		opts := core.DefaultOptions()
		opts.Decompose = uc.WantsDecomposition
		opts.FlowCache = entries
		dp, err := core.Compile(uc.Pipeline, opts)
		if err != nil {
			b.Fatal(err)
		}
		dps[i] = dp
	}
	for _, dist := range []struct {
		name string
		s    float64
	}{{"uniform", 0}, {"zipf", 1.1}} {
		for _, flows := range []int{100, 100_000} {
			for i, cache := range []string{"off", "on"} {
				dp := dps[i]
				b.Run(fmt.Sprintf("dist=%s/flows=%d/cache=%s", dist.name, flows, cache), func(b *testing.B) {
					benchFlowCacheDrive(b, dp, uc, flows, dist.s, cache == "on")
				})
			}
		}
	}
}

// BenchmarkFlowCache_L2 measures the microflow verdict cache over the
// production-shaped two-stage L2 bridge (port-security check + 100K-station
// MAC table): one cache probe replaces two large-table hash walks.
func BenchmarkFlowCache_L2(b *testing.B) {
	benchmarkFlowCacheRows(b, workload.L2PortSecurityUseCase(100_000, 4))
}

// BenchmarkFlowCache_L3 measures the cache over the production-shaped
// two-stage router (100K-tuple flow-admission ACL + 100K-prefix RIB): one
// cache probe replaces a large-hash and an LPM walk.
func BenchmarkFlowCache_L3(b *testing.B) {
	benchmarkFlowCacheRows(b, workload.L3ACLRouterUseCase(100_000, 100_000, 8, 2016))
}

// --- Megaflow second-level cache -----------------------------------------------

// benchMegaflowEntries is the megaflow-on per-group entry budget of the
// BenchmarkMegaflow rows.
const benchMegaflowEntries = 4096

// benchMegaflowDrive drives the datapath with packets drawn from next and
// reports Mpps plus the microflow and (when enabled) megaflow hit rates over
// the measured region.  nFlows sizes the warmup: two passes over the active
// flow set, clamped the way benchFlowCacheDrive clamps.
func benchMegaflowDrive(b *testing.B, dp *core.Datapath, next func(*pkt.Packet), nFlows int, megaOn bool) {
	b.Helper()
	w := dp.RegisterWorker()
	defer dp.UnregisterWorker(w)
	const burst = dpdk.DefaultBurst
	packets := make([]pkt.Packet, burst)
	ps := make([]*pkt.Packet, burst)
	for i := range packets {
		ps[i] = &packets[i]
	}
	vs := make([]openflow.Verdict, burst)
	warmup := 2 * nFlows
	if warmup < 20_000 {
		warmup = 20_000
	}
	if warmup > 250_000 {
		warmup = 250_000
	}
	for i := 0; i < warmup; i += burst {
		for j := 0; j < burst; j++ {
			next(ps[j])
		}
		w.Enter()
		w.ProcessBurst(ps, vs)
		w.Exit()
	}
	// The datapath (and its monotonic stats folds) is shared across
	// sub-benchmarks, so hit rates come from before/after deltas.
	before := dp.FlowCacheStats()
	beforeM := dp.MegaflowStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		n := burst
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			next(ps[j])
		}
		w.Enter()
		w.ProcessBurst(ps[:n], vs[:n])
		w.Exit()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
	after := dp.FlowCacheStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits+misses > 0 {
		b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit%")
	}
	if megaOn {
		afterM := dp.MegaflowStats()
		if mh, mm := afterM.Hits-beforeM.Hits, afterM.Misses-beforeM.Misses; mh+mm > 0 {
			b.ReportMetric(100*float64(mh)/float64(mh+mm), "megahit%")
		}
	}
}

// BenchmarkMegaflow_L3 measures the masked-match second-level cache over the
// 100K-prefix router on the dist=uniform|zipf|sweep × megaflow=off|on grid.
// Both compiles keep the microflow cache on, so megaflow=off is the
// microflow-only baseline the megaflow layer must beat under the sweep.
//
// The sweep rows are the adversarial acceptance workload: a source-address ×
// source-port scan emitting 2^20 (~1M) distinct microflows — each seen once
// per wrap, far beyond any exact-match cache — against a destination the
// pipeline routes through a real LPM path.  Exact-match caching is useless
// there (hit% ~0) while the megaflow layer absorbs the scan under a handful
// of wildcard entries (megahit% > 90 after warmup).
func BenchmarkMegaflow_L3(b *testing.B) {
	uc := workload.L3UseCase(100_000, 8, 2016)
	var dps [2]*core.Datapath
	for i, mega := range []int{0, benchMegaflowEntries} {
		opts := core.DefaultOptions()
		opts.Decompose = uc.WantsDecomposition
		opts.FlowCache = benchFlowCacheEntries
		opts.Megaflow = mega
		dp, err := core.Compile(uc.Pipeline, opts)
		if err != nil {
			b.Fatal(err)
		}
		dps[i] = dp
	}
	const flows = 100_000
	for _, dist := range []struct {
		name string
		s    float64
	}{{"uniform", 0}, {"zipf", 1.1}} {
		for i, mega := range []string{"off", "on"} {
			dp := dps[i]
			b.Run(fmt.Sprintf("dist=%s/flows=%d/megaflow=%s", dist.name, flows, mega), func(b *testing.B) {
				trace := uc.Trace(flows)
				if dist.s > 0 {
					if err := trace.UseZipf(dist.s, 42); err != nil {
						b.Fatal(err)
					}
				}
				benchMegaflowDrive(b, dp, trace.Next, flows, mega == "on")
			})
		}
	}
	// Sweep template: borrow a routed destination from the trace so the scan
	// traverses a real LPM path, then step the source address and port — the
	// fields the L3 pipeline never examines.
	var probe pkt.Packet
	uc.Trace(4).Next(&probe)
	pkt.ParseL4(&probe)
	template := pktgen.Flow{
		InPort:  probe.InPort,
		SrcIP:   pkt.IPv4FromOctets(10, 200, 0, 1),
		DstIP:   probe.Headers.IPDst,
		SrcPort: 1024,
		DstPort: 80,
	}
	for i, mega := range []string{"off", "on"} {
		dp := dps[i]
		sweep, err := pktgen.NewSweepTrace(template, 1<<16, 1<<4, dpdk.DefaultBurst)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("dist=sweep/flows=%d/megaflow=%s", sweep.NumFlows(), mega), func(b *testing.B) {
			benchMegaflowDrive(b, dp, sweep.Next, sweep.NumFlows(), mega == "on")
		})
	}
}

// BenchmarkFig19_ScalingHotPort is the Fig. 19 acceptance benchmark of the
// multi-queue refactor: ALL traffic arrives on ONE port, RSS-spread over the
// port's RX queues, and 1..4 workers poll their queue subsets against the
// shared epoch-swapped compiled datapath with batched TX.  Aggregate Mpps
// should grow monotonically with workers on machines with that many cores
// (on fewer cores the workers time-share); scripts/bench_scaling.sh records
// the sweep to BENCH_scaling.json.
func BenchmarkFig19_ScalingHotPort(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			h, err := experiments.NewScalingHarness(10_000)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			pt := h.Run(workers, b.N)
			b.StopTimer()
			b.ReportMetric(pt.Mpps, "Mpps")
		})
	}
}

// BenchmarkSlowPath_PuntRing measures the raw punt-ring data path — the
// frame copy into a pre-allocated slot, the SPSC publish and the consumer
// copy-out — which is exactly the per-punt overhead a worker pays on a
// ToController verdict plus what the slow-path service pays to drain it.
func BenchmarkSlowPath_PuntRing(b *testing.B) {
	ring := slowpath.NewRing(4096, 0)
	frame := make([]byte, 64)
	var rec slowpath.PuntRecord
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.Push(frame, 1, 0, openflow.PuntMiss)
		ring.Pop(&rec)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
}

// BenchmarkSlowPath_PuntDeliver measures punt throughput through the whole
// switch-side slow path: an all-miss pipeline punts every packet, the worker
// copies it into its punt ring, and a concurrent slow-path service drains
// the rings and encodes PacketIns (delivery to an in-memory sink, no TCP).
// Ring overflow under pressure is accounted as PuntDrops, never felt by the
// polling loop — the rate-decoupling property this subsystem exists for.
func BenchmarkSlowPath_PuntDeliver(b *testing.B) {
	uc := workload.L2LearningUseCase(1000, 4)
	dp, err := core.Compile(uc.Pipeline, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: 4, RingSize: 8192, Queues: dpdk.DefaultQueues})
	rings, err := sw.ArmPuntRings(4096, 0)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := slowpath.NewService(slowpath.Config{
		Rings: rings,
		Send:  func(pi ofp.PacketIn) error { return nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	go svc.Run(stop)
	defer close(stop)
	trace := uc.Trace(512)
	frames := make([][]byte, 512)
	inPorts := make([]uint32, 512)
	for i := range frames {
		frames[i], inPorts[i] = trace.Frame(i)
	}
	b.ResetTimer()
	injected := 0
	for injected < b.N {
		for i := 0; i < len(frames) && injected < b.N; i++ {
			port, _ := sw.Port(inPorts[i])
			if port.InjectOn(dpdk.AutoQueue, frames[i]) {
				injected++
			}
		}
		for sw.PollOnce(nil) > 0 {
		}
		for _, p := range sw.Ports() {
			p.DrainTx()
		}
	}
	// Every punt must be accounted — delivered by the service or dropped at
	// a full ring — before the clock stops.
	for {
		st := sw.Stats()
		if svc.Delivered()+st.PuntDrops >= st.ToCtrl {
			break
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
}

// BenchmarkSlowPath_FlowSetupRate measures the closed reactive loop end to
// end: each iteration converges a fresh 128-host L2 learning scenario —
// punt rings, rate-unlimited PacketIn delivery over a real loopback TCP
// OpenFlow channel, a learning controller installing FlowMods and replaying
// PacketOuts — and the metric is learned flows per second of wall time
// (reported through the Mpps column as millions of flow setups per second,
// so the regression gate tracks it like every other row).
func BenchmarkSlowPath_FlowSetupRate(b *testing.B) {
	setups := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := experiments.NewSlowPathHarness(experiments.SlowPathConfig{Hosts: 128})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Converge(64, 30*time.Second); err != nil {
			b.Fatal(err)
		}
		setups += h.Learner.FlowMods()
		h.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(setups)/b.Elapsed().Seconds()/1e6, "Mpps")
}

// BenchmarkSlowPath_PostConvergence is the "punt machinery off the hot
// path" acceptance benchmark: a learning controller converges the pipeline
// once, then forwarding is measured with the punt rings still armed — the
// steady state punts nothing, so the rate must match an equivalently-shaped
// proactive L2 pipeline within noise.
func BenchmarkSlowPath_PostConvergence(b *testing.B) {
	h, err := experiments.NewSlowPathHarness(experiments.SlowPathConfig{Hosts: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Converge(64, 30*time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	mpps, punts := h.MeasureForwarding(b.N)
	b.StopTimer()
	if punts > 0 && !testing.Short() {
		b.Fatalf("post-convergence traffic still punted %d packets", punts)
	}
	b.ReportMetric(mpps, "Mpps")
}

// benchTraceReplay replays a checked-in pcap capture through the full
// switch: the pcap backend on port 1 demultiplexes trace frames over its RX
// queues by RSS hash exactly as a multi-queue NIC would, the remaining ports
// are counted sinks, and PollOnce runs the run-to-completion worker loop.
// The packet-rate rows therefore reflect the capture's real byte and flow
// distributions rather than pktgen synthetics.  Replay loops flat-out —
// pacing would measure the trace's own cadence, not the switch.
func benchTraceReplay(b *testing.B, trace string, uc *workload.UseCase) {
	ingress, err := dpdk.OpenPcapBackend(trace, dpdk.PcapConfig{Queues: dpdk.DefaultQueues, Loop: true})
	if err != nil {
		b.Fatal(err)
	}
	backends := []dpdk.PortBackend{ingress}
	for len(backends) < uc.Pipeline.NumPorts {
		backends = append(backends, dpdk.NewNullBackend(dpdk.DefaultQueues))
	}
	opts := core.DefaultOptions()
	opts.Decompose = uc.WantsDecomposition
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		b.Fatal(err)
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{Backends: backends})
	defer sw.Close()
	b.ResetTimer()
	for processed := 0; processed < b.N; {
		processed += sw.PollOnce(nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
}

// BenchmarkTraceReplay_L2 replays testdata/l2_min.pcap (256 flows of the L2
// use case's traffic, 64-byte frames) against the matching L2 pipeline.
func BenchmarkTraceReplay_L2(b *testing.B) {
	benchTraceReplay(b, "testdata/l2_min.pcap", workload.L2UseCase(1000, 4))
}

// BenchmarkTraceReplay_L3IMIX replays testdata/l3_imix.pcap (the L3 use
// case's traffic zero-padded to the 7:4:1 IMIX size mix) against the
// matching L3 pipeline — the realistic-sizes row of the replay family.
func BenchmarkTraceReplay_L3IMIX(b *testing.B) {
	benchTraceReplay(b, "testdata/l3_imix.pcap", workload.L3UseCase(10000, 8, 2016))
}

// --- Observability plane overhead ------------------------------------------

// benchTelemetryDrive measures full-switch forwarding Mpps (injected ring
// traffic, PollOnce worker loop) with the observability plane off or fully
// armed: per-flow counters compiled in (the exporter's sampling source),
// burst/punt latency sampling on, and a live FlowExporter goroutine polling
// the flow table at its production cadence while the measured loop runs.
func benchTelemetryDrive(b *testing.B, armed bool) {
	b.Helper()
	uc := workload.L2UseCase(10_000, 4)
	opts := core.DefaultOptions()
	opts.UpdateCounters = armed
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		b.Fatal(err)
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: 4, RingSize: 8192, Queues: dpdk.DefaultQueues})
	defer sw.Close()
	if armed {
		sw.SetLatencySampling(true)
		exp := telemetry.NewFlowExporter(dp, &telemetry.MemorySink{}, telemetry.ExporterConfig{})
		exp.Start()
		defer exp.Close()
	}
	trace := uc.Trace(512)
	frames := make([][]byte, 512)
	inPorts := make([]uint32, 512)
	for i := range frames {
		frames[i], inPorts[i] = trace.Frame(i)
	}
	ports := make([]*dpdk.Port, 5)
	for i := 1; i <= 4; i++ {
		ports[i], _ = sw.Port(uint32(i))
	}
	b.ResetTimer()
	injected := 0
	for injected < b.N {
		for i := 0; i < len(frames) && injected < b.N; i++ {
			if ports[inPorts[i]].InjectOn(dpdk.AutoQueue, frames[i]) {
				injected++
			}
		}
		for sw.PollOnce(nil) > 0 {
		}
		for _, p := range sw.Ports() {
			p.DrainTx()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
	if lat := sw.BurstLatency(); armed && lat.Count() == 0 {
		b.Fatal("latency sampling armed but no bursts recorded")
	}
}

// BenchmarkTelemetry_Overhead proves the observability plane's hot-path
// budget: the telemetry=on row (per-flow counters + latency histograms +
// live exporter) must stay within 5% of the telemetry=off row's Mpps.  The
// pair is recorded to BENCH_burst.json so the regression gate tracks both
// sides of the comparison.
func BenchmarkTelemetry_Overhead(b *testing.B) {
	for _, armed := range []bool{false, true} {
		name := "telemetry=off"
		if armed {
			name = "telemetry=on"
		}
		b.Run(name, func(b *testing.B) { benchTelemetryDrive(b, armed) })
	}
}
