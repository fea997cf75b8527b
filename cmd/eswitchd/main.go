// Command eswitchd runs an ESWITCH (or flow-caching baseline) switch over the
// in-memory dataplane substrate for one of the paper's use cases and prints
// live forwarding statistics — a miniature stand-in for running the prototype
// on a DPDK testbed.
//
// Usage:
//
//	eswitchd [-usecase l2|l3|loadbalancer|gateway|l2learn|xconnect] [-datapath eswitch|ovs]
//	         [-backend ring|pcap:<file>|afpacket:<iface>,...]
//	         [-flows 10000] [-duration 5s] [-cores 1] [-flowcache 262144|off]
//	         [-flow-sweep-interval 1s] [-soft-table-entries 0]
//	         [-listen :6653] [-punt-ring 1024] [-punt-rate 10000]
//	         [-fail-mode normal|standalone|secure] [-punt-filter 4096]
//	         [-punt-filter-window 64] [-miss-send-len 128] [-max-table-entries 0]
//	         [-metrics-addr :9090] [-flow-export udp:host:port|file:path]
//	         [-flow-export-interval 1s] [-flow-active-timeout 30s]
//	         [-flow-idle-timeout 10s] [-trace <hexframe|pcap:file[:n]>] [-trace-port 1]
//
// -listen accepts OpenFlow controllers one at a time and applies their
// FlowMods to the running switch.  Each is a supervised session (the chaos
// tests' controller.Session): an EchoRequest every 500ms, torn down after
// 1.5s without an EchoReply.  The switch leaves -fail-mode while a session
// is up, re-enters it when the session dies, and accepts the next one.
//
// # Observability plane
//
// -metrics-addr serves the switch's full metric surface — every folded
// Stats() counter, per-port I/O and link state, cache and fault-domain
// counters, burst-duration and punt-latency histograms, Go runtime stats —
// in Prometheus text format on /metrics, plus /debug/pprof for profiling.
// It also arms latency sampling (one gate load per worker poll; two clock
// reads per burst when armed).  The end-of-run stats footer renders from the
// same registry the endpoint serves, so stdout and HTTP can never disagree.
//
// -flow-export streams IPFIX flow records (RFC 7011 subset, pure stdlib) to
// a UDP collector ("udp:host:port") or a length-prefixed file ("file:path").
// The exporter samples per-flow counters off the flow table on the lifecycle
// sweeper's locked walk — never the worker hot path — and exports deltas on
// active/idle timeouts plus a final record when a flow expires or the switch
// shuts down.  Per-flow counters are maintained only when exporting; the
// verdict caches stay enabled regardless — a cache hit credits the same flow
// entries the full walk would have, so exported statistics stay exact.
//
// -trace replays one packet through the compiled pipeline off the hot path
// and prints an ofproto/trace-style explanation — which table, template and
// entry classified it at every step, the verdict, whether the pipeline arms
// the verdict cache and the compiled key it probes on — then exits.  The packet is a hex
// string ("02000000000101..." ) or a capture slot ("pcap:flows.pcap:3");
// -trace-port sets its ingress port.
//
// -backend selects the packet I/O behind each port, one comma-separated item
// per port in port-ID order (a shorter list is padded with "null" TX sinks):
//
//	ring              simulated SPSC rings fed by the built-in generator (default)
//	pcap:<file>       replay a classic libpcap capture as the port's RX stream
//	                  flat-out (-pcap-loop restarts it when it runs out)
//	afpacket:<iface>  raw AF_PACKET socket on a Linux interface (CAP_NET_RAW;
//	                  forwards real frames, e.g. between veth pairs)
//	null              TX sink (never receives, counts and discards sends)
//
// With real backends the built-in traffic generator is idle — packets come
// from the trace or the wire — and the -usecase xconnect pipeline
// cross-connects port pairs (1<->2, 3<->4) purely by ingress port, the
// natural pipeline for AF_PACKET forwarding.
//
// -flowcache gives every forwarding worker a private verdict cache of the
// given number of entries in front of the compiled pipeline (eswitch datapath
// only), keyed on the bits the pipeline reads.  The compiler arms it only
// where the walk is deeper than one probe: on a pipeline that is a single
// direct-code, hash or LPM stage (l2, l3) eswitchd prints a note and the
// workers allocate nothing.  The "flowcache:" summary line shows the compiled
// key and the hit/miss/stale/revalidated counters folded from all workers.
//
// The "model:" summary line is a reading, not a forwarding mode: the workers
// always forward through the burst engine, and after they stop a fixed-size
// sample of the use case's generated trace is walked packet by packet through
// the same compiled datapath under the paper's cycle model (-datapath ovs
// meters its own per-packet path in line, as it has no other).
//
// -flow-sweep-interval starts the flow lifecycle sweeper: flow entries
// installed with idle/hard timeouts (FlowMod timeouts over -listen) expire
// lazily off the hot path, and each removal is announced to the connected
// controller as a FlowRemoved message.  -soft-table-entries adds an
// LRU-approximate eviction policy: tables above the soft limit shed their
// least-recently-active entries each sweep (a soft companion to the
// -max-table-entries hard cap).
//
// -punt-ring arms the slow path: every forwarding worker gets a bounded punt
// ring of the given capacity, ToController verdicts are copied into it
// (drop-on-full, accounted) instead of discarded, and — with -listen — a
// slow-path service drains the rings into PacketIn messages for the
// connected controller and executes its PacketOut replies (including
// output:TABLE re-injection).  -punt-rate caps PacketIn delivery in packets
// per second (OVS-style controller rate limiting; 0 = unlimited).  The
// l2learn use case starts with an EMPTY table-miss-punts pipeline, so
// attaching a learning controller (controller.LearningSwitch) closes the
// reactive loop: punts decay to zero as flows are learned.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eswitch/internal/controller"
	"eswitch/internal/core"
	"eswitch/internal/cpumodel"
	"eswitch/internal/dpdk"
	"eswitch/internal/openflow"
	"eswitch/internal/ovs"
	"eswitch/internal/pcap"
	"eswitch/internal/pkt"
	"eswitch/internal/slowpath"
	"eswitch/internal/telemetry"
	"eswitch/internal/workload"
)

// replayDone reports whether every trace-replay ingress has been fully
// delivered (and none of the ports is live I/O that could still receive).
// Exhaustion surfaces through the port fault domain: a spent non-looping
// trace reports a fatal queue error, the port supervisor parks the port
// Down (pcap has no Reopen, so it stays there), and this just reads the
// link states.
func replayDone(sw *dpdk.Switch) bool {
	sawPcap := false
	for _, port := range sw.Ports() {
		switch port.Backend().(type) {
		case *dpdk.PcapBackend:
			sawPcap = true
			if port.LinkState() != dpdk.LinkDown {
				return false
			}
		case *dpdk.AFPacketBackend:
			return false
		}
	}
	return sawPcap
}

// backendName renders a port's backend kind for the stats footer.
func backendName(be dpdk.PortBackend) string {
	switch b := be.(type) {
	case *dpdk.RingBackend:
		return "ring"
	case *dpdk.NullBackend:
		return "null"
	case *dpdk.PcapBackend:
		return "pcap"
	case *dpdk.AFPacketBackend:
		return "afpacket:" + b.Interface()
	default:
		return fmt.Sprintf("%T", be)
	}
}

// rateString renders a pps cap for the startup banner.
func rateString(pps int) string {
	if pps <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%d pps", pps)
}

// traceFrame materializes the -trace packet: "pcap:<file>[:index]" pulls one
// capture record, anything else parses as hex (spaces/colons tolerated).
func traceFrame(spec string) ([]byte, error) {
	if rest, ok := strings.CutPrefix(spec, "pcap:"); ok {
		file, idx := rest, 0
		if i := strings.LastIndex(rest, ":"); i > 0 {
			n, err := strconv.Atoi(rest[i+1:])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad pcap slot %q", rest[i+1:])
			}
			file, idx = rest[:i], n
		}
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r, err := pcap.NewReader(f)
		if err != nil {
			return nil, err
		}
		for i := 0; ; i++ {
			p, err := r.Next()
			if err != nil {
				return nil, fmt.Errorf("capture has no packet %d: %w", idx, err)
			}
			if i == idx {
				return p.Data, nil
			}
		}
	}
	clean := strings.Map(func(r rune) rune {
		switch r {
		case ' ', ':', '\n', '\t':
			return -1
		}
		return r
	}, spec)
	return hex.DecodeString(clean)
}

// modelSample is how many frames of the use case's generated trace the
// eswitch datapath's "model:" line walks after the workers stop.
const modelSample = 1 << 18

func buildUseCase(name string, flows, backendPorts int) *workload.UseCase {
	switch name {
	case "l2":
		return workload.L2UseCase(1000, 4)
	case "l3":
		return workload.L3UseCase(10000, 8, 2016)
	case "loadbalancer":
		return workload.LoadBalancerUseCase(100)
	case "gateway":
		return workload.GatewayUseCase(workload.DefaultGatewayConfig())
	case "l2learn":
		return workload.L2LearningUseCase(1000, 4)
	case "xconnect":
		// Size the cross-connect to the -backend list so two AF_PACKET
		// interfaces make a two-port patch, four make two patches, and so on.
		return workload.XConnectUseCase(backendPorts)
	default:
		return nil
	}
}

func main() {
	useCase := flag.String("usecase", "gateway", "use case: l2, l3, loadbalancer, gateway, l2learn, xconnect")
	datapath := flag.String("datapath", "eswitch", "datapath: eswitch or ovs")
	backendSpec := flag.String("backend", "ring", "per-port packet I/O backends, comma-separated: ring, null, pcap:<file>, afpacket:<iface>")
	pcapLoop := flag.Bool("pcap-loop", true, "restart pcap replay when the trace runs out")
	flows := flag.Int("flows", 10000, "number of active flows in the generated traffic")
	duration := flag.Duration("duration", 5*time.Second, "how long to forward traffic")
	cores := flag.Int("cores", 1, "number of forwarding worker goroutines")
	queues := flag.Int("queues", dpdk.DefaultQueues, "RX/TX queue pairs per port (RSS width; caps -cores)")
	flowcache := flag.String("flowcache", "off", "per-worker verdict cache, armed where the pipeline is deeper than one probe: entry count (e.g. 262144) or off")
	sweepInterval := flag.Duration("flow-sweep-interval", 0, "flow lifecycle sweep interval enabling idle/hard timeout expiry and FlowRemoved announcements (0 = off; eswitch datapath only)")
	softTable := flag.Int("soft-table-entries", 0, "per-table soft entry limit; the lifecycle sweeper evicts least-recently-active entries above it (0 = off)")
	listen := flag.String("listen", "", "optional OpenFlow agent listen address (e.g. :6653)")
	puntRing := flag.Int("punt-ring", 0, "per-worker slow-path punt ring capacity (0 = punts counted but discarded)")
	puntRate := flag.Int("punt-rate", 0, "PacketIn delivery cap in packets/second (0 = unlimited)")
	failModeName := flag.String("fail-mode", "normal", "degraded mode while no controller is connected: normal, standalone or secure")
	puntFilter := flag.Int("punt-filter", 0, "per-worker punt-storm filter size in microflow entries (0 = off)")
	puntFilterWindow := flag.Int("punt-filter-window", 64, "punt-storm filter suppression window in worker poll iterations")
	missSendLen := flag.Int("miss-send-len", 0, "PacketIn payload truncation in bytes, original length preserved in total_len (0 = full frame)")
	maxTable := flag.Int("max-table-entries", 0, "per-table flow entry cap; overflowing FlowMods fail with TABLE_FULL (0 = unlimited; eswitch datapath only)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus-text /metrics and /debug/pprof on this address; arms latency sampling (e.g. :9090)")
	flowExport := flag.String("flow-export", "", "IPFIX flow export sink: udp:host:port or file:path (eswitch datapath; maintains per-flow counters — the verdict caches stay enabled, their hits credit the matched entries)")
	flowExportInterval := flag.Duration("flow-export-interval", time.Second, "flow exporter poll interval")
	flowActive := flag.Duration("flow-active-timeout", 30*time.Second, "export a still-active flow's accumulated delta at least this often")
	flowIdle := flag.Duration("flow-idle-timeout", 10*time.Second, "export a flow's remaining delta once its counters idle this long")
	traceSpec := flag.String("trace", "", "trace one packet through the compiled pipeline and exit: hex frame or pcap:<file>[:index] (eswitch datapath)")
	tracePort := flag.Uint("trace-port", 1, "ingress port for -trace")
	flag.Parse()

	failMode, err := dpdk.ParseFailMode(*failModeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cacheEntries := 0
	if *flowcache != "off" && *flowcache != "0" {
		cacheEntries, err = strconv.Atoi(*flowcache)
		if err != nil || cacheEntries < 0 {
			fmt.Fprintf(os.Stderr, "-flowcache wants an entry count or \"off\", got %q\n", *flowcache)
			os.Exit(2)
		}
	}
	if *flowExport != "" && *datapath != "eswitch" {
		fmt.Fprintln(os.Stderr, "eswitchd: -flow-export requires -datapath eswitch (per-flow counters live on the compiled flow table)")
		os.Exit(2)
	}

	// The backend item count sizes port-count-flexible pipelines (xconnect)
	// before the spec is actually opened.
	backendPorts := 0
	if !dpdk.IsRingSpec(*backendSpec) {
		backendPorts = len(strings.Split(*backendSpec, ","))
	}
	uc := buildUseCase(*useCase, *flows, backendPorts)
	if uc == nil {
		fmt.Fprintf(os.Stderr, "unknown use case %q\n", *useCase)
		os.Exit(2)
	}

	meter := cpumodel.NewMeter(cpumodel.DefaultPlatform())
	var fastpath dpdk.Datapath
	var programmer controller.FlowProgrammer
	var compiled *core.Datapath
	switch *datapath {
	case "eswitch":
		opts := core.DefaultOptions()
		opts.MaxTableEntries = *maxTable
		opts.UpdateCounters = *flowExport != ""
		opts.FlowCache = cacheEntries
		opts.Meter = meter
		dp, err := core.Compile(uc.Pipeline, opts)
		if err != nil {
			log.Fatalf("compile: %v", err)
		}
		if key, why := dp.FlowCacheKey(); why != "" && cacheEntries > 0 {
			// Nothing is allocated until a flow-mod arms the cache.
			fmt.Printf("eswitchd: note: -flowcache: cache not armed (%s); key: %s\n", why, key)
		}
		fastpath = dp // the compiled datapath drives the workers' burst path
		programmer = dp
		compiled = dp
		fmt.Printf("eswitchd: compiled %q into %d stages:\n", *useCase, len(dp.Stages()))
		for _, st := range dp.Stages() {
			fmt.Printf("  table %-4d %-14s %6d entries  %s\n", st.ID, st.Template, st.Entries, st.Name)
		}
	case "ovs":
		if cacheEntries > 0 {
			fmt.Println("eswitchd: note: -flowcache applies to the eswitch datapath only (ovs has its own microflow/megaflow cache)")
		}
		opts := ovs.DefaultOptions()
		opts.Meter = meter
		sw, err := ovs.New(uc.Pipeline, opts)
		if err != nil {
			log.Fatalf("baseline: %v", err)
		}
		fastpath = dpdk.DatapathFunc(sw.Process)
		programmer = sw
		fmt.Printf("eswitchd: running the flow-caching baseline for %q\n", *useCase)
	default:
		fmt.Fprintf(os.Stderr, "unknown datapath %q\n", *datapath)
		os.Exit(2)
	}

	if *traceSpec != "" {
		// Trace mode: explain one packet's walk through the compiled
		// pipeline and exit — no ports, no workers, no traffic.
		if compiled == nil {
			fmt.Fprintln(os.Stderr, "eswitchd: -trace requires -datapath eswitch")
			os.Exit(2)
		}
		frame, err := traceFrame(*traceSpec)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		p := pkt.Packet{Data: frame, InPort: uint32(*tracePort)}
		fmt.Print(compiled.Trace(&p).String())
		return
	}

	// Drive the switch through the dataplane substrate: RSS-steered
	// multi-queue ports, one burst worker per core over its own queue
	// subset (lock-free against the compiled datapath via worker epochs),
	// batched TX.  -backend swaps the simulated rings for real packet I/O
	// (pcap replay, AF_PACKET) behind the same Port API.
	backends, err := dpdk.ParseBackendSpec(*backendSpec, uc.Pipeline.NumPorts, dpdk.BackendSpecConfig{
		RingSize: 4096,
		Queues:   *queues,
		Pcap:     dpdk.PcapConfig{Loop: *pcapLoop},
	})
	if err != nil {
		log.Fatalf("backend: %v", err)
	}
	realIO := backends != nil
	sw := dpdk.NewSwitchWithConfig(fastpath, dpdk.SwitchConfig{
		Backends: backends,
		NumPorts: uc.Pipeline.NumPorts,
		RingSize: 4096,
		Queues:   *queues,
	})
	defer sw.Close()
	if *puntFilter > 0 {
		sw.SetPuntFilter(*puntFilter, *puntFilterWindow)
		fmt.Printf("eswitchd: punt-storm filter armed: %d entries per worker, %d-poll window\n",
			*puntFilter, *puntFilterWindow)
	}
	if failMode != dpdk.FailNormal {
		// Degraded until a controller actually connects; the control
		// session below flips the switch back to normal for each session.
		sw.SetFailMode(failMode)
		fmt.Printf("eswitchd: fail mode %s while no controller is connected\n", failMode)
	}

	var puntRings []*slowpath.Ring
	if *puntRing > 0 {
		puntRings, err = sw.ArmPuntRings(*puntRing, 0)
		if err != nil {
			log.Fatalf("slowpath: %v", err)
		}
		fmt.Printf("eswitchd: slow path armed: %d punt rings x %d entries, PacketIn rate limit %s\n",
			len(puntRings), puntRings[0].Capacity(), rateString(*puntRate))
	}

	// The control session (-listen) the sweeper and the port supervisor
	// announce to.
	agent := controller.NewAgent(programmer)
	sess := &controller.Session{
		Switch: sw,
		Agent:  agent,
		Slowpath: slowpath.Config{
			Rings:       puntRings,
			RatePPS:     *puntRate,
			Window:      256,
			MissSendLen: *missSendLen,
		},
		FailMode: failMode,
	}

	// The flow lifecycle sweeper runs per datapath, entirely off the hot
	// path; removals (idle/hard expiry, soft-limit eviction) are announced to
	// the current controller session as FlowRemoved messages.
	if compiled != nil && (*sweepInterval > 0 || *softTable > 0) {
		sweeper := core.NewSweeper(compiled, core.SweeperConfig{
			Interval:  *sweepInterval,
			SoftLimit: *softTable,
			OnRemoved: sess.FlowRemoved,
		})
		sweepStop := make(chan struct{})
		defer close(sweepStop)
		go sweeper.Run(sweepStop)
		fmt.Printf("eswitchd: flow lifecycle sweeper running every %s (soft table limit %d)\n",
			sweeper.Interval(), *softTable)
	}

	// The port supervisor is the port fault domain: it watches backend queue
	// errors and worker heartbeats, parks failing ports Down (workers skip
	// them), re-dials reopenable backends under a deterministic backoff, and
	// announces every link transition — to the log, and to the current
	// controller session as OFPT_PORT_STATUS.
	psup := sw.StartPortSupervisor(dpdk.PortSupervisorConfig{
		OnTransition: func(ev dpdk.PortLinkEvent) {
			if ev.Err != nil {
				log.Printf("eswitchd: port %d link %s: %s (%v)", ev.Port, ev.State, ev.Reason, ev.Err)
			} else {
				log.Printf("eswitchd: port %d link %s: %s", ev.Port, ev.State, ev.Reason)
			}
			sess.PortStatus(ev)
		},
	})
	defer psup.Stop()

	// The observability plane: one registry behind /metrics AND the stats
	// footer, an optional IPFIX flow exporter, and latency sampling armed
	// whenever anyone is watching.
	reg := telemetry.NewRegistry()
	telemetry.RegisterSwitch(reg, telemetry.SwitchSource{Switch: sw, Datapath: compiled, Supervisor: psup})
	telemetry.RegisterGoRuntime(reg)
	var exporter *telemetry.FlowExporter
	if *flowExport != "" {
		sink, err := telemetry.ParseSink(*flowExport)
		if err != nil {
			log.Fatalf("flow export: %v", err)
		}
		exporter = telemetry.NewFlowExporter(compiled, sink, telemetry.ExporterConfig{
			PollInterval:  *flowExportInterval,
			ActiveTimeout: *flowActive,
			IdleTimeout:   *flowIdle,
		})
		telemetry.RegisterExporter(reg, exporter)
		exporter.Start()
		fmt.Printf("eswitchd: IPFIX flow export to %s every %s (active timeout %s, idle timeout %s)\n",
			*flowExport, *flowExportInterval, *flowActive, *flowIdle)
	}
	if *metricsAddr != "" || exporter != nil {
		sw.SetLatencySampling(true)
	}
	if *metricsAddr != "" {
		msrv, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		defer msrv.Close()
		fmt.Printf("eswitchd: metrics on http://%s/metrics (profiling on /debug/pprof)\n", msrv.Addr())
	}

	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatalf("listen: %v", err)
		}
		sup, err := controller.NewSupervisor(controller.SupervisorConfig{
			Dial:  ln.Accept,
			Agent: agent,
			OnUp:  sess.OnUp,
			OnDown: func(err error) {
				if err != nil {
					log.Printf("eswitchd: controller session ended: %v", err)
				}
				sess.OnDown(err)
			},
		})
		if err != nil {
			log.Fatalf("listen: %v", err)
		}
		sup.Start()
		defer func() {
			ln.Close() // Stop waits for the pending Accept to return
			sup.Stop()
		}()
		fmt.Printf("eswitchd: OpenFlow agent listening on %s\n", ln.Addr())
	}
	// SIGINT/SIGTERM cut the run short but shut down in order: stop the
	// workers, drain the TX sinks one last time, close every backend exactly
	// once, and print the final stats — the same epilogue a timed run
	// reaches.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	interrupted := false

	workers := sw.ClampWorkers(*cores) // report what actually runs
	stop := sw.RunWorkers(workers)
	deadline := time.Now().Add(*duration)
	injected := uint64(0)
	if realIO {
		// Packets come from the trace replay or the wire; the generator
		// stays idle and the main goroutine just minds the clock (cutting
		// the run short once a non-looping replay is spent).
		fmt.Printf("eswitchd: forwarding real I/O for %s on %d worker(s)\n",
			*duration, workers)
		for time.Now().Before(deadline) && !interrupted {
			select {
			case s := <-sigc:
				log.Printf("eswitchd: %v, shutting down", s)
				interrupted = true
			case <-time.After(50 * time.Millisecond):
			}
			if replayDone(sw) {
				break
			}
		}
	} else {
		trace := uc.Trace(*flows)
		fmt.Printf("eswitchd: forwarding %d active flows for %s on %d worker(s), %d RX/TX queues per port\n",
			*flows, *duration, workers, sw.NumQueues())
		var p pkt.Packet
		nq := uint32(sw.NumQueues())
		for time.Now().Before(deadline) && !interrupted {
			select {
			case s := <-sigc:
				log.Printf("eswitchd: %v, shutting down", s)
				interrupted = true
				continue
			default:
			}
			for burst := 0; burst < 4096; burst++ {
				trace.Next(&p)
				port, err := sw.Port(p.InPort)
				if err != nil {
					continue
				}
				// The trace pre-computed each flow's RSS hash, so steering
				// through it keeps the producer path to a bare ring enqueue
				// (AutoQueue would rehash the frame per call).
				if port.InjectOn(int(p.FlowHash()%nq), p.Data) {
					injected++
				}
			}
			for _, port := range sw.Ports() {
				port.DrainTx()
			}
		}
	}
	stop()
	psup.Stop()
	// Final drain, then release the backends (the Port layer's closed latch
	// makes the deferred Close a no-op — each backend closes exactly once).
	for _, port := range sw.Ports() {
		port.DrainTx()
	}
	if err := sw.Close(); err != nil {
		log.Printf("eswitchd: close: %v", err)
	}

	// The exporter flushes every remaining flow delta (forced end) before
	// the footer renders, so the ipfix line shows the final totals.
	if exporter != nil {
		if err := exporter.Close(); err != nil {
			log.Printf("eswitchd: flow export: %v", err)
		}
	}
	// The counter invariants hold at rest (workers stopped): surface any
	// violation loudly rather than printing inconsistent numbers.
	st := sw.Stats()
	if err := st.CheckInvariants(puntRings != nil); err != nil {
		log.Printf("eswitchd: %v", err)
	}
	var cacheKey, cacheUnarmed string
	if compiled != nil {
		// output:TABLE PacketOuts run Process, which probes the cache
		// without a worker receiving the frame, unless the datapath is
		// metered: a metered Process records the walk and never probes.
		probes := st.Processed
		if compiled.Meter() == nil {
			probes += sw.Reinjected()
		}
		if err := compiled.FlowCacheStats().CheckInvariants(probes, st.Panics); err != nil {
			log.Printf("eswitchd: %v", err)
		}
		cacheKey, cacheUnarmed = compiled.FlowCacheKey()
	}
	// One renderer for every run mode, reading the same registry /metrics
	// serves — stdout and HTTP cannot disagree.
	telemetry.RenderFooter(os.Stdout, reg, telemetry.FooterConfig{
		RealIO:   realIO,
		Injected: injected,
		PortDetail: func(id uint64) string {
			port, err := sw.Port(uint32(id))
			if err != nil {
				return ""
			}
			return fmt.Sprintf("[%s, link %s]", backendName(port.Backend()), port.LinkState())
		},
		Slowpath:     puntRings != nil,
		FlowCache:    compiled != nil && cacheEntries > 0,
		CacheKey:     cacheKey,
		CacheUnarmed: cacheUnarmed,
		Latency:      sw.LatencySampling(),
	})
	sampled := ""
	if compiled != nil {
		// The workers forwarded unmetered; a metered Process is safe
		// while the agent and the sweeper may still be applying flow-mods.
		// Each frame is copied so rewrites do not accumulate in the trace.
		trace := uc.Trace(*flows)
		var p pkt.Packet
		var v openflow.Verdict
		var frame []byte
		for i := 0; i < modelSample; i++ {
			trace.Next(&p)
			frame = append(frame[:0], p.Data...)
			p.Data = frame
			compiled.Process(&p, &v)
		}
		sampled = fmt.Sprintf(" (offline: %d generated frames through a metered Process)", modelSample)
	}
	fmt.Printf("model:     %.1f cycles/packet, %.2f Mpps single-core at %.1f GHz, %.3f LLC misses/packet%s\n",
		meter.CyclesPerPacket(), meter.PacketRate()/1e6, meter.Platform.FreqGHz, meter.LLCMissesPerPacket(), sampled)
}
