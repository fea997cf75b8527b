// The benchmarks neither other harness has.  bench/ (bash bench/run.sh) owns
// every forwarding, flow-mod, set-up and heap number the repository quotes,
// and cmd/eswitch-experiments regenerates the paper's figures; what is left
// here are the punt-ring and trace-replay paths bench/ does not drive, the
// router's cache grid with its 1M-microflow sweep, the one row the deleted second cache level ever won
// (ROADMAP 3), and the gateway's armed verdict cache, timed without the
// ring substrate around it.
// They measure the real Go implementations (ns/op on the machine running
// them) and are not gated.
package eswitch

import (
	"fmt"
	"testing"
	"time"

	"eswitch/internal/core"
	"eswitch/internal/dpdk"
	"eswitch/internal/experiments"
	"eswitch/internal/ofp"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/slowpath"
	"eswitch/internal/workload"
)

// --- The router under a cache-hostile sweep ------------------------------------

// benchFlowCacheEntries is the per-worker cache the cache=on compiles ask
// for: above the 100K active flows of the uniform and Zipf rows.
const benchFlowCacheEntries = 1 << 18

// benchFlowCacheDrive drives the datapath with packets drawn from next and
// reports Mpps plus, where the cache is armed, its hit rate over the measured
// region.  nFlows sizes the warmup: two passes over the active flow set,
// clamped to 20k..250k packets.
func benchFlowCacheDrive(b *testing.B, dp *core.Datapath, next func(*pkt.Packet), nFlows int) {
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
}

// BenchmarkFlowCache_L3Sweep drives the 100K-prefix router on the
// dist=uniform|zipf|sweep × cache=off|on grid.  The router is one LPM stage,
// so the compiler does not arm the cache (cache=on reports no hit%) and both
// columns run the plain burst path: the grid records that asking this
// pipeline for a cache costs nothing, on the workload where a cache keyed on
// the five-tuple is useless and a reactive masked level once paid.
//
// The sweep rows are that workload: a source-address × source-port scan
// emitting 2^20 (~1M) distinct microflows — each seen once per wrap — against
// a destination the pipeline routes through a real LPM path.
func BenchmarkFlowCache_L3Sweep(b *testing.B) {
	uc := workload.L3UseCase(100_000, 8, 2016)
	var dps [2]*core.Datapath
	for i, entries := range []int{0, benchFlowCacheEntries} {
		opts := core.DefaultOptions()
		opts.FlowCache = entries
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
		for i, cache := range []string{"off", "on"} {
			dp := dps[i]
			b.Run(fmt.Sprintf("dist=%s/flows=%d/cache=%s", dist.name, flows, cache), func(b *testing.B) {
				trace := uc.Trace(flows)
				if dist.s > 0 {
					if err := trace.UseZipf(dist.s, 42); err != nil {
						b.Fatal(err)
					}
				}
				benchFlowCacheDrive(b, dp, trace.Next, flows)
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
	for i, cache := range []string{"off", "on"} {
		dp := dps[i]
		sweep, err := pktgen.NewSweepTrace(template, 1<<16, 1<<4, dpdk.DefaultBurst)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("dist=sweep/flows=%d/cache=%s", sweep.NumFlows(), cache), func(b *testing.B) {
			benchFlowCacheDrive(b, dp, sweep.Next, sweep.NumFlows())
		})
	}
}

// BenchmarkFlowCache_GatewayHit drives the four-table access gateway with the
// verdict cache armed, in the shape of bench/'s gateway_zipf_cached: Zipf(1.1)
// popularity over 4,096 flows into a 2,048-entry cache, so most packets take
// the hit path (tag-first probe, verdict replay) and the rest walk the
// templates and install.  It reports Mpps and hit%.
func BenchmarkFlowCache_GatewayHit(b *testing.B) {
	uc := workload.GatewayUseCase(workload.DefaultGatewayConfig())
	opts := core.DefaultOptions()
	opts.FlowCache = 2048
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, why := dp.FlowCacheKey(); !dp.FlowCacheEnabled() {
		b.Fatalf("the gateway does not arm its cache: %s", why)
	}
	const flows = 4096
	trace := uc.Trace(flows)
	if err := trace.UseZipf(1.1, 42); err != nil {
		b.Fatal(err)
	}
	benchFlowCacheDrive(b, dp, trace.Next, flows)
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

// BenchmarkSlowPath_PostConvergence is the "punt machinery off the hot
// path" acceptance benchmark: a learning controller converges the pipeline
// once, then forwarding is measured with the punt rings still armed — the
// steady state punts nothing, so the rate must match an equivalently-shaped
// proactive L2 pipeline within noise.
func BenchmarkSlowPath_PostConvergence(b *testing.B) {
	h, err := experiments.NewChaosHarness(experiments.ChaosConfig{Hosts: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Converge(64, 30*time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	_, punts := h.MeasureForwarding(b.N)
	b.StopTimer()
	if punts > 0 && !testing.Short() {
		b.Fatalf("post-convergence traffic still punted %d packets", punts)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpps")
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
