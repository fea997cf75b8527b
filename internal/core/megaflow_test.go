package core

import (
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/workload"
)

// The acceptance tests of the per-worker megaflow second-level cache: runs
// with the masked-match layer enabled must be observationally identical to
// the plain burst path across every bundled workload, adversarial sweep
// traffic that defeats the exact-match microflow cache must be short-
// circuited by the megaflow layer, and generation bumps must invalidate
// memoized masked verdicts exactly like they invalidate microflow entries.

// mfWorker registers a worker on a megaflow-enabled compile of the use case.
func mfWorker(t *testing.T, uc *workload.UseCase, microEntries, megaEntries int) (*Datapath, *Worker) {
	t.Helper()
	opts := DefaultOptions()
	opts.Decompose = uc.WantsDecomposition
	opts.FlowCache = microEntries
	opts.Megaflow = megaEntries
	dp, err := Compile(uc.Pipeline, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := dp.RegisterWorker().(*Worker)
	if !ok {
		t.Fatal("RegisterWorker did not return a *Worker")
	}
	return dp, w
}

// TestMegaflowDifferential replays every bundled workload three times through
// a megaflow-enabled worker — a deliberately tiny microflow cache keeps the
// second-level probe and the tracked double-miss walk hot — and requires
// bit-identical verdicts, rewritten headers and metadata against a cache-free
// datapath over the same frames.
func TestMegaflowDifferential(t *testing.T) {
	cases := []*workload.UseCase{
		workload.L2UseCase(64, 4),
		workload.L3UseCase(400, 8, 7),
		workload.LoadBalancerUseCase(50),
		workload.GatewayUseCase(workload.GatewayConfig{CEs: 3, UsersPerCE: 5, Prefixes: 300, Seed: 5}),
		workload.L2PortSecurityUseCase(64, 4),
		workload.L3ACLRouterUseCase(150, 200, 8, 7),
	}
	const nFlows = 200
	for _, uc := range cases {
		t.Run(uc.Name, func(t *testing.T) {
			// 64 microflow entries for 200 flows: the first level thrashes,
			// so the megaflow layer sees misses on every pass, not just the
			// cold one.
			dp, w := mfWorker(t, uc, 64, 4096)
			defer dp.UnregisterWorker(w)
			if !dp.MegaflowEnabled() {
				t.Fatalf("%s pipeline unexpectedly not megaflow-cacheable", uc.Name)
			}

			plainOpts := DefaultOptions()
			plainOpts.Decompose = uc.WantsDecomposition
			plain, err := Compile(uc.Pipeline, plainOpts)
			if err != nil {
				t.Fatal(err)
			}
			pw := plain.RegisterWorker()
			defer plain.UnregisterWorker(pw)

			trace := uc.Trace(nFlows)
			frames := make([][]byte, nFlows)
			inPorts := make([]uint32, nFlows)
			for i := range frames {
				var p pkt.Packet
				trace.Next(&p)
				frames[i], inPorts[i] = p.Data, p.InPort
			}

			const burst = 32
			packets := make([]pkt.Packet, burst)
			ps := make([]*pkt.Packet, burst)
			for i := range packets {
				ps[i] = &packets[i]
			}
			vs := make([]openflow.Verdict, burst)
			refPackets := make([]pkt.Packet, burst)
			refPs := make([]*pkt.Packet, burst)
			for i := range refPackets {
				refPs[i] = &refPackets[i]
			}
			refVs := make([]openflow.Verdict, burst)

			for pass := 0; pass < 3; pass++ {
				for base := 0; base < nFlows; base += burst {
					g := burst
					if nFlows-base < g {
						g = nFlows - base
					}
					for j := 0; j < g; j++ {
						packets[j] = pkt.Packet{Data: frames[base+j], InPort: inPorts[base+j]}
						refPackets[j] = pkt.Packet{Data: frames[base+j], InPort: inPorts[base+j]}
					}
					w.Enter()
					w.ProcessBurst(ps[:g], vs[:g])
					w.Exit()
					pw.Enter()
					pw.ProcessBurst(refPs[:g], refVs[:g])
					pw.Exit()
					for j := 0; j < g; j++ {
						if !sameVerdict(&vs[j], &refVs[j]) {
							t.Fatalf("pass %d frame %d: megaflow verdict %s != plain %s",
								pass, base+j, vs[j].String(), refVs[j].String())
						}
						if packets[j].Headers != refPackets[j].Headers {
							t.Fatalf("pass %d frame %d: megaflow headers %+v != plain %+v",
								pass, base+j, packets[j].Headers, refPackets[j].Headers)
						}
						if packets[j].Metadata != refPackets[j].Metadata {
							t.Fatalf("pass %d frame %d: megaflow metadata %#x != plain %#x",
								pass, base+j, packets[j].Metadata, refPackets[j].Metadata)
						}
					}
				}
			}

			fcs := dp.FlowCacheStats()
			ms := dp.MegaflowStats()
			// Layering exactness: every microflow miss was exactly one
			// megaflow hit or one megaflow miss (tracked walk).
			if ms.Hits+ms.Misses != fcs.Misses {
				t.Fatalf("megaflow layering violated: mega hits %d + misses %d != microflow misses %d",
					ms.Hits, ms.Misses, fcs.Misses)
			}
			if fcs.Hits+fcs.Misses != uint64(3*nFlows) {
				t.Fatalf("fold exactness violated: hits %d + misses %d != %d processed",
					fcs.Hits, fcs.Misses, 3*nFlows)
			}
		})
	}
}

// TestMegaflowSweepShortCircuit is the adversarial acceptance test: a source
// sweep (every packet a brand-new microflow over one routed destination)
// defeats the exact-match microflow cache completely, and the megaflow layer
// must absorb it — after one tracked walk installs the wildcard entry, every
// subsequent packet must be a masked-match hit.
func TestMegaflowSweepShortCircuit(t *testing.T) {
	uc := workload.L3UseCase(1000, 8, 2016)
	dp, w := mfWorker(t, uc, 4096, 4096)
	defer dp.UnregisterWorker(w)
	if !dp.MegaflowEnabled() {
		t.Fatal("L3 pipeline unexpectedly not megaflow-cacheable")
	}
	plain, err := Compile(uc.Pipeline, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Template flow: borrow the destination of a routed trace flow so the
	// sweep traverses a real LPM path, then scan the source address — a field
	// the L3 pipeline never examines.
	var probe pkt.Packet
	uc.Trace(4).Next(&probe)
	pkt.ParseL4(&probe)
	sweep, err := pktgen.NewSweepTrace(pktgen.Flow{
		InPort:  probe.InPort,
		SrcIP:   pkt.IPv4FromOctets(10, 200, 0, 1),
		DstIP:   probe.Headers.IPDst,
		SrcPort: 7,
		DstPort: 80,
	}, 1<<16, 1, 64)
	if err != nil {
		t.Fatal(err)
	}

	const total = 8192
	const burst = 32
	packets := make([]pkt.Packet, burst)
	ps := make([]*pkt.Packet, burst)
	for i := range packets {
		ps[i] = &packets[i]
	}
	vs := make([]openflow.Verdict, burst)
	for sent := 0; sent < total; sent += burst {
		for j := 0; j < burst; j++ {
			sweep.Next(&packets[j])
		}
		w.Enter()
		w.ProcessBurst(ps, vs)
		w.Exit()
		// Spot-check correctness against the plain walk.
		if sent%1024 == 0 {
			var ref openflow.Verdict
			p := pkt.Packet{Data: packets[0].Data, InPort: packets[0].InPort}
			plain.Process(&p, &ref)
			if !sameVerdict(&vs[0], &ref) {
				t.Fatalf("packet %d: sweep verdict %s != plain %s", sent, vs[0].String(), ref.String())
			}
		}
	}

	fcs := dp.FlowCacheStats()
	ms := dp.MegaflowStats()
	if fcs.Hits != 0 {
		t.Fatalf("a pure source sweep cannot repeat a microflow, yet the microflow cache hit %d times", fcs.Hits)
	}
	if ms.Hits+ms.Misses != fcs.Misses {
		t.Fatalf("megaflow layering violated: %d + %d != %d", ms.Hits, ms.Misses, fcs.Misses)
	}
	if hitRate := float64(ms.Hits) / float64(total); hitRate < 0.99 {
		t.Fatalf("megaflow absorbed only %.2f%% of the sweep (want > 99%%): %+v", 100*hitRate, ms)
	}
}

// TestMegaflowInvalidation asserts a flow-mod is never outrun by a memoized
// masked verdict: entries installed before an update carry the retired
// generation and must be re-derived, so post-update sweep packets observe the
// new route immediately.
func TestMegaflowInvalidation(t *testing.T) {
	pl := openflow.NewPipeline(4)
	// LPM routing over the destination; priorities equal prefix lengths.
	for i := 0; i < 8; i++ {
		pl.Table(0).AddFlow(16,
			openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(0xcb000000+uint32(i)<<16), 16),
			openflow.Apply(openflow.Output(2)))
	}
	pl.Table(0).AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))

	opts := DefaultOptions()
	opts.FlowCache = 1024
	opts.Megaflow = 1024
	dp, err := Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := dp.RegisterWorker().(*Worker)
	if !ok {
		t.Fatal("RegisterWorker did not return a *Worker")
	}
	defer dp.UnregisterWorker(w)

	const dst = 0xcb030a01 // 203.3.10.1, inside the /16 towards port 2
	burstOut := func(srcBase uint32) uint32 {
		const burst = 16
		b := pkt.NewBuilder(128)
		packets := make([]pkt.Packet, burst)
		ps := make([]*pkt.Packet, burst)
		vs := make([]openflow.Verdict, burst)
		for j := 0; j < burst; j++ {
			packets[j] = pkt.Packet{
				Data:   pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: pkt.IPv4(srcBase + uint32(j)), Dst: dst}, pkt.L4Opts{Src: 9, Dst: 80})),
				InPort: 1,
			}
			ps[j] = &packets[j]
		}
		w.Enter()
		w.ProcessBurst(ps, vs)
		w.Exit()
		out := uint32(0)
		for j := range vs {
			if len(vs[j].OutPorts) != 1 {
				t.Fatalf("packet %d: unexpected verdict %s", j, vs[j].String())
			}
			if out == 0 {
				out = vs[j].OutPorts[0]
			} else if vs[j].OutPorts[0] != out {
				t.Fatalf("split burst: ports %d and %d", out, vs[j].OutPorts[0])
			}
		}
		return out
	}

	// Warm the megaflow layer on the /16 route, then verify masked hits
	// engage (second burst, fresh sources, same wildcard entry).
	if got := burstOut(0x0a000000); got != 2 {
		t.Fatalf("pre-update egress %d, want 2", got)
	}
	if got := burstOut(0x0a010000); got != 2 {
		t.Fatalf("pre-update egress %d, want 2", got)
	}
	if ms := dp.MegaflowStats(); ms.Hits == 0 {
		t.Fatalf("source-varied repeat produced no megaflow hits: %+v", ms)
	}

	// A more specific route supersedes the memoized wildcard verdict.
	if err := dp.AddFlow(0, openflow.NewEntry(24,
		openflow.NewMatch().SetPrefix(openflow.FieldIPDst, 0xcb030a00, 24),
		openflow.Apply(openflow.Output(3)))); err != nil {
		t.Fatal(err)
	}
	if got := burstOut(0x0a020000); got != 3 {
		t.Fatalf("post-update egress %d, want 3 (stale megaflow verdict served?)", got)
	}
	// And deleting it must fall back to the /16 again.
	if _, err := dp.DeleteFlow(0, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, 0xcb030a00, 24), 24); err != nil {
		t.Fatal(err)
	}
	if got := burstOut(0x0a030000); got != 2 {
		t.Fatalf("post-delete egress %d, want 2", got)
	}
}
