// Differential tests for the burst fast path: every bundled workload is run
// through the reference Interpreter, the per-packet compiled path (Process)
// and the burst engine (ProcessBurst), and all three must agree on verdicts
// and rewritten headers — including bursts that mix drops, goto chains and
// controller punts, and burst sizes that exercise the MaxBurst chunking.
package eswitch

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"eswitch/internal/controller"
	"eswitch/internal/core"
	"eswitch/internal/cpumodel"
	"eswitch/internal/dpdk"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
	"eswitch/internal/telemetry"
	"eswitch/internal/workload"
)

// diffFrame is one input packet of a differential case.
type diffFrame struct {
	data   []byte
	inPort uint32
}

func framesFromTrace(tr *pktgen.Trace, n int) []diffFrame {
	out := make([]diffFrame, 0, n)
	var p pkt.Packet
	for i := 0; i < n; i++ {
		tr.Next(&p)
		out = append(out, diffFrame{data: p.Data, inPort: p.InPort})
	}
	return out
}

// verdictsIdentical is the strict comparison between the two compiled paths:
// the burst engine must reproduce the per-packet path bit for bit, including
// statistics.
func verdictsIdentical(a, b *openflow.Verdict) bool {
	if a.ToController != b.ToController || a.Dropped != b.Dropped ||
		a.TableMiss != b.TableMiss || a.Modified != b.Modified || a.Tables != b.Tables {
		return false
	}
	if len(a.OutPorts) != len(b.OutPorts) {
		return false
	}
	for i := range a.OutPorts {
		if a.OutPorts[i] != b.OutPorts[i] {
			return false
		}
	}
	return true
}

// runDifferential runs one workload's frames through all three datapaths,
// with and without a cycle meter, plus the other per-packet entry point:
// Trace must claim the per-packet verdict, headers and metadata in as many
// steps as the verdict counts tables.  Only the per-packet pass charges the
// meter; the bursts after it must leave it where it was.
func runDifferential(t *testing.T, name string, pl *openflow.Pipeline, frames []diffFrame, decompose bool) {
	t.Helper()
	n := len(frames)
	for _, metered := range []bool{false, true} {
		t.Run(fmt.Sprintf("%s/metered=%v", name, metered), func(t *testing.T) {
			interp := openflow.NewInterpreter(pl.Clone())
			interp.UpdateCounters = false
			opts := core.DefaultOptions()
			opts.Decompose = decompose
			if metered {
				opts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
			}
			dp, err := core.Compile(pl.Clone(), opts)
			if err != nil {
				t.Fatal(err)
			}

			// Reference and per-packet compiled runs.
			iv := make([]openflow.Verdict, n)
			ih := make([]pkt.Headers, n)
			sv := make([]openflow.Verdict, n)
			sh := make([]pkt.Headers, n)
			sm := make([]uint64, n)
			for i, f := range frames {
				p := pkt.Packet{Data: f.data, InPort: f.inPort}
				interp.Process(&p, &iv[i], nil)
				ih[i] = p.Headers
				p = pkt.Packet{Data: f.data, InPort: f.inPort}
				dp.Process(&p, &sv[i])
				sh[i], sm[i] = p.Headers, p.Metadata
			}
			perPacketCycles := opts.Meter.TotalCycles()
			if metered != (perPacketCycles > 0) {
				t.Fatalf("metered=%v per-packet pass charged %d cycles", metered, perPacketCycles)
			}
			for i, f := range frames {
				p := pkt.Packet{Data: f.data, InPort: f.inPort}
				tr := dp.Trace(&p)
				if !verdictsIdentical(&tr.Verdict, &sv[i]) || p.Headers != sh[i] || p.Metadata != sm[i] || len(tr.Steps) != tr.Verdict.Tables {
					t.Fatalf("frame %d: single verdict %s, headers %+v metadata %#x; Trace left headers %+v metadata %#x and says\n%s",
						i, sv[i].String(), sh[i], sm[i], p.Headers, p.Metadata, tr)
				}
			}

			// Per-packet compiled vs interpreter: same externally visible
			// outcome and same header rewrites.
			for i := range frames {
				if !sv[i].Equivalent(&iv[i]) || sv[i].ToController != iv[i].ToController || sv[i].Dropped != iv[i].Dropped {
					t.Fatalf("frame %d: compiled %s != interpreter %s", i, sv[i].String(), iv[i].String())
				}
				if sh[i] != ih[i] {
					t.Fatalf("frame %d: compiled headers %+v != interpreter headers %+v", i, sh[i], ih[i])
				}
			}

			// Burst runs at several burst sizes; n > core.MaxBurst exercises
			// the chunking path.
			for _, burst := range []int{1, 5, 32, n} {
				packets := make([]pkt.Packet, burst)
				ps := make([]*pkt.Packet, burst)
				for j := range packets {
					ps[j] = &packets[j]
				}
				vs := make([]openflow.Verdict, burst)
				for base := 0; base < n; base += burst {
					g := burst
					if n-base < g {
						g = n - base
					}
					for j := 0; j < g; j++ {
						packets[j] = pkt.Packet{Data: frames[base+j].data, InPort: frames[base+j].inPort}
					}
					dp.ProcessBurst(ps[:g], vs[:g])
					for j := 0; j < g; j++ {
						i := base + j
						if !verdictsIdentical(&vs[j], &sv[i]) {
							t.Fatalf("burst=%d frame %d: burst verdict %s != single %s", burst, i, vs[j].String(), sv[i].String())
						}
						if packets[j].Headers != sh[i] {
							t.Fatalf("burst=%d frame %d: burst headers %+v != single %+v", burst, i, packets[j].Headers, sh[i])
						}
						if packets[j].Metadata != sm[i] {
							t.Fatalf("burst=%d frame %d: burst metadata %#x != single %#x", burst, i, packets[j].Metadata, sm[i])
						}
					}
				}
				if got := opts.Meter.TotalCycles(); got != perPacketCycles {
					t.Fatalf("burst=%d: bursts moved the meter from %d to %d cycles", burst, perPacketCycles, got)
				}
			}
		})
	}
}

func TestBurstDifferentialL2(t *testing.T) {
	uc := workload.L2UseCase(64, 4)
	frames := framesFromTrace(uc.Trace(100), 100)
	// An unlearned destination address exercises the flood catch-all.
	b := pkt.NewBuilder(128)
	frames = append(frames, diffFrame{
		data:   pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{Dst: pkt.MACFromUint64(0xdead), Src: pkt.MACFromUint64(7), EtherType: 0x0800}, nil)),
		inPort: 2,
	})
	runDifferential(t, "l2", uc.Pipeline, frames, false)
}

func TestBurstDifferentialL3(t *testing.T) {
	uc := workload.L3UseCase(400, 8, 7)
	frames := framesFromTrace(uc.Trace(100), 100)
	b := pkt.NewBuilder(128)
	// An ARP frame misses the IPv4 prerequisite of the LPM template and must
	// fall through to the drop catch-all; a bare L2 frame likewise.
	frames = append(frames,
		diffFrame{data: pkt.Clone(b.ARPPacket(pkt.EthernetOpts{Dst: pkt.MACFromUint64(1), Src: pkt.MACFromUint64(2)}, 1, 0x0a000001, 0x0a000002)), inPort: 1},
		diffFrame{data: pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{Dst: pkt.MACFromUint64(1), Src: pkt.MACFromUint64(2), EtherType: 0x88cc}, nil)), inPort: 3},
	)
	runDifferential(t, "l3", uc.Pipeline, frames, false)
}

func TestBurstDifferentialLoadBalancer(t *testing.T) {
	uc := workload.LoadBalancerUseCase(50)
	// The trace already mixes admitted web traffic with dropped non-web
	// traffic; add reverse-direction packets from the backends.
	frames := framesFromTrace(uc.Trace(100), 100)
	b := pkt.NewBuilder(128)
	frames = append(frames, diffFrame{
		data: pkt.Clone(b.TCPPacket(pkt.EthernetOpts{Dst: pkt.MACFromUint64(2), Src: pkt.MACFromUint64(1)},
			pkt.IPv4Opts{Src: pkt.IPv4FromOctets(198, 51, 0, 3), Dst: pkt.IPv4FromOctets(203, 0, 113, 9)},
			pkt.L4Opts{Src: 80, Dst: 50000})),
		inPort: 2,
	})
	runDifferential(t, "loadbalancer", uc.Pipeline, frames, true)
	runDifferential(t, "loadbalancer-nodecomp", uc.Pipeline, frames, false)
}

func TestBurstDifferentialGateway(t *testing.T) {
	cfg := workload.GatewayConfig{CEs: 3, UsersPerCE: 5, Prefixes: 300, Seed: 5}
	uc := workload.GatewayUseCase(cfg)
	frames := framesFromTrace(uc.Trace(100), 100)
	b := pkt.NewBuilder(128)
	dstIP := pkt.IPv4FromOctets(203, 0, 113, 50)
	frames = append(frames,
		// Unknown user behind a known CE: per-CE table punts to controller.
		diffFrame{data: pkt.Clone(b.TCPPacket(
			pkt.EthernetOpts{Dst: pkt.MACFromUint64(1), Src: pkt.MACFromUint64(9), VLAN: 100},
			pkt.IPv4Opts{Src: pkt.IPv4FromOctets(10, 0, 7, 7), Dst: dstIP},
			pkt.L4Opts{Src: 1234, Dst: 80})), inPort: 1},
		// Unknown VLAN: the dispatch table punts.
		diffFrame{data: pkt.Clone(b.TCPPacket(
			pkt.EthernetOpts{Dst: pkt.MACFromUint64(1), Src: pkt.MACFromUint64(9), VLAN: 999},
			pkt.IPv4Opts{Src: pkt.IPv4FromOctets(10, 0, 0, 1), Dst: dstIP},
			pkt.L4Opts{Src: 1234, Dst: 80})), inPort: 1},
		// Downlink towards a known public address: rewritten and tagged.
		diffFrame{data: pkt.Clone(b.TCPPacket(
			pkt.EthernetOpts{Dst: pkt.MACFromUint64(1), Src: pkt.MACFromUint64(9)},
			pkt.IPv4Opts{Src: dstIP, Dst: pkt.IPv4FromOctets(100, 64+1, 0, 2)},
			pkt.L4Opts{Src: 80, Dst: 1234})), inPort: 2},
		// Downlink towards an unknown public address: punted.
		diffFrame{data: pkt.Clone(b.TCPPacket(
			pkt.EthernetOpts{Dst: pkt.MACFromUint64(1), Src: pkt.MACFromUint64(9)},
			pkt.IPv4Opts{Src: dstIP, Dst: pkt.IPv4FromOctets(100, 99, 0, 1)},
			pkt.L4Opts{Src: 80, Dst: 1234})), inPort: 2},
	)
	runDifferential(t, "gateway", uc.Pipeline, frames, false)
}

// TestBurstDifferentialMultiStage covers the production-shaped two-stage
// workloads the microflow-cache benchmarks run on: the port-security L2
// bridge (incl. an unknown source that must punt, and an unknown destination
// that must flood) and the ACL router (incl. a non-admitted tuple that must
// drop).
func TestBurstDifferentialMultiStage(t *testing.T) {
	l2 := workload.L2PortSecurityUseCase(64, 4)
	frames := framesFromTrace(l2.Trace(100), 100)
	b := pkt.NewBuilder(128)
	frames = append(frames,
		// Unknown source MAC: port security punts to the controller.
		diffFrame{data: pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{
			Dst: pkt.MACFromUint64(0x020000000001), Src: pkt.MACFromUint64(0xbad), EtherType: 0x0800}, nil)), inPort: 1},
		// Known source, unknown destination: floods.
		diffFrame{data: pkt.Clone(b.EthernetFrame(pkt.EthernetOpts{
			Dst: pkt.MACFromUint64(0xdead), Src: pkt.MACFromUint64(0x020000000000), EtherType: 0x0800}, nil)), inPort: 1},
	)
	runDifferential(t, "l2-portsec", l2.Pipeline, frames, false)

	l3 := workload.L3ACLRouterUseCase(80, 200, 8, 7)
	frames = framesFromTrace(l3.Trace(100), 100)
	frames = append(frames, diffFrame{
		// Tuple outside the admission ACL: dropped at table 0.
		data: pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
			pkt.IPv4Opts{Src: pkt.IPv4FromOctets(203, 0, 113, 9), Dst: pkt.IPv4FromOctets(10, 0, 0, 1)},
			pkt.L4Opts{Src: 999, Dst: 22})), inPort: 1,
	})
	runDifferential(t, "l3-acl", l3.Pipeline, frames, false)
}

func TestBurstDifferentialFirewalls(t *testing.T) {
	b := pkt.NewBuilder(128)
	web := uint64(workload.WebServerIP)
	frames := []diffFrame{
		// Internal-to-external: forwarded unconditionally.
		{data: pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 9, Dst: 8}, pkt.L4Opts{Src: 80, Dst: 5000})), inPort: 2},
		// Admitted HTTP towards the web server.
		{data: pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 7, Dst: pkt.IPv4(web)}, pkt.L4Opts{Src: 4000, Dst: 80})), inPort: 1},
		// SSH towards the web server: dropped by the filter stage.
		{data: pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 7, Dst: pkt.IPv4(web)}, pkt.L4Opts{Src: 4001, Dst: 22})), inPort: 1},
		// UDP port 80: fails the TCP prerequisite, dropped.
		{data: pkt.Clone(b.UDPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 7, Dst: pkt.IPv4(web)}, pkt.L4Opts{Src: 4002, Dst: 80})), inPort: 1},
		// ARP from outside: dropped.
		{data: pkt.Clone(b.ARPPacket(pkt.EthernetOpts{}, 1, 0x0a000001, 0x0a000002)), inPort: 1},
	}
	runDifferential(t, "firewall-single", workload.FirewallSingleStage(), frames, false)
	runDifferential(t, "firewall-multi", workload.FirewallMultiStage(), frames, false)
}

// TestProcessBurstNoAllocs asserts the acceptance criterion directly: the
// steady-state burst path performs no allocations.
func TestProcessBurstNoAllocs(t *testing.T) {
	cases := []*workload.UseCase{
		workload.L2UseCase(1000, 4),
		workload.L3UseCase(1000, 8, 2016),
		workload.LoadBalancerUseCase(100),
		workload.GatewayUseCase(workload.GatewayConfig{CEs: 4, UsersPerCE: 8, Prefixes: 500, Seed: 3}),
	}
	for _, uc := range cases {
		t.Run(uc.Name, func(t *testing.T) {
			opts := core.DefaultOptions()
			dp, err := core.Compile(uc.Pipeline, opts)
			if err != nil {
				t.Fatal(err)
			}
			tr := uc.Trace(256)
			const burst = 32
			packets := make([]pkt.Packet, burst)
			ps := make([]*pkt.Packet, burst)
			for j := range packets {
				ps[j] = &packets[j]
			}
			vs := make([]openflow.Verdict, burst)
			w := dp.RegisterWorker()
			defer dp.UnregisterWorker(w)
			run := func() {
				for j := 0; j < burst; j++ {
					tr.Next(ps[j])
				}
				w.Enter()
				w.ProcessBurst(ps, vs)
				w.Exit()
			}
			// Warm the verdict/action-set capacities, then measure with the
			// GC pinned so a collection cannot masquerade as a steady-state
			// allocation.
			for i := 0; i < 8; i++ {
				run()
			}
			if raceEnabled {
				t.Skip("allocation accounting is meaningless under the race detector")
			}
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Fatalf("ProcessBurst allocates %v per burst in steady state", allocs)
			}
		})
	}
}

// TestWorkerPathZeroLocksZeroAllocs asserts the multi-queue acceptance
// criterion directly: the steady-state worker path — RX burst → ProcessBurst
// → staged TX flush — performs zero mutex acquisitions (on both the datapath
// and the switch) and zero allocations per poll iteration.  The flowcache
// variant runs the identical assertions on a pipeline that arms the verdict
// cache (the admission ACL in front of the RIB): probe, patch replay and
// install must all stay off the allocator and off every mutex.
// The evicting variant offers the smallest cache four times the flows it
// holds, so the steady state is misses, evictions and installs on every poll.
// The gateway variants do the same through a direct-code start table and
// four stages: with four times as many flows as the cache holds, so every
// poll runs the wave engine and installs, and with a cache larger than the
// flow set, so every measured poll is served by the tag-first hit path.
// The metered variant is flowcache=on over a datapath that carries a cycle
// meter: its workers are ordinary burst workers, and none of it — polling,
// the facade burst, the registered worker — may charge the meter.
func TestWorkerPathZeroLocksZeroAllocs(t *testing.T) {
	l3 := workload.L3UseCase(1000, 4, 2016)
	acl := workload.L3ACLRouterUseCase(2048, 1000, 4, 2016)
	t.Run("flowcache=off", func(t *testing.T) { testWorkerPathZeroLocksZeroAllocs(t, l3, 256, 0, false, nil) })
	t.Run("flowcache=on", func(t *testing.T) { testWorkerPathZeroLocksZeroAllocs(t, acl, 256, 4096, false, nil) })
	t.Run("flowcache=evicting", func(t *testing.T) { testWorkerPathZeroLocksZeroAllocs(t, acl, 1024, 64, true, nil) })
	gw := workload.GatewayUseCase(workload.GatewayConfig{CEs: 4, UsersPerCE: 8, Prefixes: 1000, Seed: 2016})
	t.Run("gateway/misses", func(t *testing.T) { testWorkerPathZeroLocksZeroAllocs(t, gw, 1024, 64, true, nil) })
	t.Run("gateway/hits", func(t *testing.T) { testWorkerPathZeroLocksZeroAllocs(t, gw, 256, 4096, false, nil) })
	t.Run("metered", func(t *testing.T) {
		testWorkerPathZeroLocksZeroAllocs(t, acl, 256, 4096, false, cpumodel.NewMeter(cpumodel.DefaultPlatform()))
	})
	t.Run("table0-write-actions", func(t *testing.T) {
		testWorkerPathZeroLocksZeroAllocs(t, l2WriteActionsUseCase(), 256, 0, false, nil)
	})
	// One hash stage whose direct-code tail holds the load balancer's
	// defaults: compiled output and lone-drop action programs.
	t.Run("loadbalancer", func(t *testing.T) {
		testWorkerPathZeroLocksZeroAllocs(t, workload.LoadBalancerUseCase(100), 256, 0, false, nil)
	})
}

// l2WriteActionsUseCase is L2 switching whose MAC table writes its output
// into the action set and goes to a catch-all table 1, where the set runs:
// the burst engine's level 0 merges a write-actions list on every packet.
func l2WriteActionsUseCase() *workload.UseCase {
	uc := workload.L2UseCase(1000, 4)
	pl := openflow.NewPipeline(uc.Pipeline.NumPorts)
	t0 := pl.Table(0)
	for _, e := range uc.Pipeline.Table(0).Entries() {
		t0.AddFlow(e.Priority, e.Match, openflow.Instructions{
			WriteActions: e.Instructions.ApplyActions, GotoTable: 1, HasGoto: true,
		})
	}
	pl.AddTable(1).AddFlow(0, openflow.NewMatch(), openflow.Instructions{})
	uc.Pipeline = pl
	return uc
}

// idleSupervisor connects a supervised control channel to a throwaway
// controller endpoint and parks it: the echo interval is an hour, so during
// the measured window the supervisor goroutine sits blocked in its select
// and the agent sits blocked in a read — supervision armed, zero background
// activity.
func idleSupervisor(t *testing.T, dp controller.FlowProgrammer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	sup, err := controller.NewSupervisor(controller.SupervisorConfig{
		Dial:         func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) },
		Agent:        controller.NewAgent(dp),
		EchoInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Start()
	t.Cleanup(func() {
		sup.Stop()
		ln.Close()
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
	})
	for i := 0; sup.State() != controller.SupervisorUp; i++ {
		if i > 5000 {
			t.Fatal("supervisor never established its session")
		}
		time.Sleep(time.Millisecond)
	}
}

func testWorkerPathZeroLocksZeroAllocs(t *testing.T, uc *workload.UseCase, nFrames, flowCache int, wantWalks bool, meter *cpumodel.Meter) {
	opts := core.DefaultOptions()
	opts.FlowCache = flowCache
	opts.Meter = meter
	// The capacity guardrail is part of the armed failure plane; it gates
	// AddFlow only, so the worker path below must never feel it.
	opts.MaxTableEntries = 4096
	dp, err := core.Compile(uc.Pipeline.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: uc.Pipeline.NumPorts, RingSize: 4096, Queues: dpdk.DefaultQueues})
	// The slow path must stay off the hot path: with the punt rings armed
	// but no punting traffic (these workloads never punt), the worker loop
	// below must remain zero-lock and zero-alloc.
	if _, err := sw.ArmPuntRings(256, 0); err != nil {
		t.Fatal(err)
	}
	// The rest of the failure plane rides along: punt-storm filter armed,
	// fail mode explicit, and an idle supervised control channel connected.
	// None of it may cost the zero-punt worker path a lock or an allocation.
	sw.SetPuntFilter(1024, 64)
	sw.SetFailMode(dpdk.FailNormal)
	idleSupervisor(t, dp)
	// The port fault domain rides along at full cadence: the supervisor
	// scans every queue's error slot and the heartbeat registry once per
	// millisecond throughout the measured window.  Its scan reads only
	// atomics, so it must cost the worker path nothing — no lock on the
	// switch's counted mutex, no allocation.
	psup := sw.StartPortSupervisor(dpdk.PortSupervisorConfig{Interval: time.Millisecond, Seed: 1})
	t.Cleanup(psup.Stop)
	// The observability plane rides along fully armed: latency sampling on
	// (the worker path pays its two clock reads and two atomic adds per
	// burst — which must stay lock- and allocation-free), the metrics
	// endpoint serving, and the flow exporter started.  The exporter's
	// timers are parked at an hour, like the idle supervisor above: armed,
	// but its locked flow-table walk never lands inside the measured window
	// (scrapes and exports are reader-side and cost the workers nothing).
	sw.SetLatencySampling(true)
	reg := telemetry.NewRegistry()
	telemetry.RegisterSwitch(reg, telemetry.SwitchSource{Switch: sw, Datapath: dp, Supervisor: psup})
	telemetry.RegisterGoRuntime(reg)
	msrv, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { msrv.Close() })
	exporter := telemetry.NewFlowExporter(dp, &telemetry.MemorySink{}, telemetry.ExporterConfig{
		PollInterval: time.Hour, ActiveTimeout: time.Hour, IdleTimeout: time.Hour,
	})
	exporter.Start()
	t.Cleanup(func() { exporter.Close() })
	// Prove the endpoint actually serves the armed surface before the
	// measured window (the scrape folds counters under the switch mutex, so
	// it must precede the lock snapshot).
	if resp, err := http.Get("http://" + msrv.Addr() + "/metrics"); err != nil {
		t.Fatal(err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "eswitch_burst_duration_seconds_count") {
			t.Fatalf("armed metrics endpoint missing latency histogram:\n%.400s", body)
		}
		// The arming decision is one scrape away.
		armed := "eswitch_flowcache_armed 0\n"
		if flowCache > 0 {
			armed = "eswitch_flowcache_armed 1\n"
		}
		if !strings.Contains(string(body), armed) {
			t.Fatalf("metrics endpoint does not report %q", armed)
		}
	}
	trace := uc.Trace(2 * nFrames)
	frames := make([][]byte, nFrames)
	ports := make([]*dpdk.Port, nFrames)
	for i := range frames {
		var in uint32
		frames[i], in = trace.Frame(i)
		ports[i], _ = sw.Port(in)
	}
	run := func() {
		for i, f := range frames {
			ports[i].InjectOn(dpdk.AutoQueue, f)
		}
		for sw.PollOnce(nil) > 0 {
		}
		for _, p := range sw.Ports() {
			p.DrainTx()
		}
	}
	// Warm the PollOnce worker, the TX staging capacities and the burst
	// scratch, then measure.
	for i := 0; i < 4; i++ {
		run()
	}
	warmMisses := dp.FlowCacheStats().Misses
	lockedDP, lockedSW := dp.MutexOps(), sw.MutexOps()
	if !raceEnabled {
		// The allocation assertion only makes sense uninstrumented (the
		// race detector itself allocates).
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Fatalf("worker poll path allocates %v per iteration in steady state", allocs)
		}
	} else {
		for i := 0; i < 20; i++ {
			run()
		}
	}
	if got := dp.MutexOps(); got != lockedDP {
		t.Fatalf("datapath mutex acquired %d times on the worker path", got-lockedDP)
	}
	if got := sw.MutexOps(); got != lockedSW {
		t.Fatalf("switch mutex acquired %d times on the worker path", got-lockedSW)
	}
	// (Stats itself takes the counted mutex, so the zero-punt premise is
	// checked only after the lock assertions.)
	st := sw.Stats()
	if st.Punts != 0 || st.PuntDrops != 0 || st.PuntSuppressed != 0 || st.PuntFiltered != 0 {
		t.Fatalf("steady-state workload punted (%d/%d, %d suppressed, %d filtered) — the zero-punt premise broke",
			st.Punts, st.PuntDrops, st.PuntSuppressed, st.PuntFiltered)
	}
	// The canonical counter identities hold over the full armed plane —
	// the substrate's and, with only PollOnce's worker probing so far, the
	// verdict cache's.
	if err := st.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	cs := dp.FlowCacheStats()
	if err := cs.CheckInvariants(st.Processed, st.Panics); err != nil {
		t.Fatal(err)
	}
	switch walks := cs.Misses - warmMisses; {
	case wantWalks && walks < uint64(nFrames):
		t.Fatalf("the measured window was to run on cache misses, yet only %d walks", walks)
	case !wantWalks && flowCache > 0 && walks != 0:
		t.Fatalf("the measured window was to run on cache hits, yet %d walks", walks)
	}
	// Latency sampling was armed throughout: the measured window's bursts
	// must appear in the folded histogram.
	if lat := sw.BurstLatency(); lat.Count() == 0 {
		t.Fatal("latency sampling armed but the burst histogram is empty")
	}
	// The epoch-pinned facade burst path must also stay lock-free.
	packets := make([]pkt.Packet, 32)
	ps := make([]*pkt.Packet, 32)
	vs := make([]openflow.Verdict, 32)
	for i := range packets {
		trace.Next(&packets[i])
		ps[i] = &packets[i]
	}
	before := dp.MutexOps()
	for i := 0; i < 50; i++ {
		dp.ProcessBurst(ps, vs)
	}
	if got := dp.MutexOps(); got != before {
		t.Fatalf("ProcessBurst acquired the mutex %d times", got-before)
	}

	// The worker-local resource plane must not reintroduce shared state on
	// the registered-worker path: a worker handle owns its burst scratch
	// outright, so driving bursts through it stays zero-lock and
	// zero-alloc, with no pool traffic at all.
	w := dp.RegisterWorker()
	defer dp.UnregisterWorker(w)
	runWorker := func() {
		w.Enter()
		w.ProcessBurst(ps, vs)
		w.Exit()
	}
	runWorker()
	lockedDP = dp.MutexOps()
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(20, runWorker); allocs != 0 {
			t.Fatalf("registered-worker burst path allocates %v per burst", allocs)
		}
	} else {
		for i := 0; i < 20; i++ {
			runWorker()
		}
	}
	if got := dp.MutexOps(); got != lockedDP {
		t.Fatalf("registered-worker burst path acquired the mutex %d times", got-lockedDP)
	}
	if flowCache > 0 {
		if !dp.FlowCacheEnabled() {
			t.Fatal("flowcache variant compiled a pipeline that does not arm the cache")
		}
		st := dp.FlowCacheStats()
		if st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("flowcache variant should have mixed hits and misses: %+v", st)
		}
	}
	if got := meter.Packets(); got != 0 {
		t.Fatalf("the burst paths charged the cycle meter for %d packets", got)
	}
}

// TestSwitchStatsFoldFlowCache is the stats-surface acceptance test: with
// the cache on, every packet the switch processed is exactly one hit or one
// miss in the datapath's own fold (fold exactness), with hits appearing as
// soon as flows repeat.
func TestSwitchStatsFoldFlowCache(t *testing.T) {
	uc := workload.L3ACLRouterUseCase(512, 500, 4, 2016)
	opts := core.DefaultOptions()
	opts.FlowCache = 4096
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		t.Fatal(err)
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: uc.Pipeline.NumPorts, RingSize: 4096, Queues: dpdk.DefaultQueues})
	trace := uc.Trace(256)
	frames := make([][]byte, 256)
	for i := range frames {
		frames[i], _ = trace.Frame(i)
	}
	port, _ := sw.Port(1)
	for pass := 0; pass < 3; pass++ {
		for _, f := range frames {
			port.InjectOn(dpdk.AutoQueue, f)
		}
		for sw.PollOnce(nil) > 0 {
		}
		for _, p := range sw.Ports() {
			p.DrainTx()
		}
	}
	st := sw.Stats()
	if st.Processed != uint64(3*len(frames)) {
		t.Fatalf("processed %d, want %d", st.Processed, 3*len(frames))
	}
	cs := dp.FlowCacheStats()
	if cs.Hits+cs.Misses != st.Processed {
		t.Fatalf("fold exactness violated: hits %d + misses %d != processed %d",
			cs.Hits, cs.Misses, st.Processed)
	}
	// The same identities (and the substrate's punt sibling) as the
	// canonical checkers state them.
	if err := cs.CheckInvariants(st.Processed, st.Panics); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
	if cs.Hits == 0 {
		t.Fatal("replayed flows produced no cache hits")
	}
}

// TestPollOnceSteadyState pins PollOnce to the worker RunWorkers runs: one
// persistent registered worker, so after warm-up — and across garbage
// collections, which a pooled poll state would not survive — inject/poll/
// drain rounds allocate nothing, take no mutex on the switch or the
// datapath, and the datapath carries exactly one worker's verdict cache.
func TestPollOnceSteadyState(t *testing.T) {
	uc := workload.GatewayUseCase(workload.GatewayConfig{CEs: 4, UsersPerCE: 8, Prefixes: 1000, Seed: 2016})
	opts := core.DefaultOptions()
	opts.FlowCache = 4096 // 1024 sets x 4 ways: one worker's cache is exactly 4096 slots
	dp, err := core.Compile(uc.Pipeline, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !dp.FlowCacheEnabled() {
		t.Fatal("the gateway did not arm the verdict cache")
	}
	sw := dpdk.NewSwitchWithConfig(dp, dpdk.SwitchConfig{NumPorts: uc.Pipeline.NumPorts, RingSize: 4096, Queues: dpdk.DefaultQueues})
	const nFrames = 256
	trace := uc.Trace(nFrames)
	frames := make([][]byte, nFrames)
	ports := make([]*dpdk.Port, nFrames)
	for i := range frames {
		var in uint32
		frames[i], in = trace.Frame(i)
		ports[i], _ = sw.Port(in)
	}
	round := func() {
		for i, f := range frames {
			ports[i].InjectOn(dpdk.AutoQueue, f)
		}
		for sw.PollOnce(nil) > 0 {
		}
		for _, p := range sw.Ports() {
			p.DrainTx()
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	runtime.GC()
	runtime.GC()
	lockedDP, lockedSW := dp.MutexOps(), sw.MutexOps()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; !raceEnabled && n != 0 {
		t.Fatalf("100 PollOnce rounds allocated %d times", n)
	}
	if got := dp.MutexOps(); got != lockedDP {
		t.Fatalf("datapath mutex acquired %d times under PollOnce", got-lockedDP)
	}
	if got := sw.MutexOps(); got != lockedSW {
		t.Fatalf("switch mutex acquired %d times under PollOnce", got-lockedSW)
	}
	if got := dp.FlowCacheStats().Capacity; got != uint64(opts.FlowCache) {
		t.Fatalf("datapath carries %d cache slots, want one worker's %d", got, opts.FlowCache)
	}
}
