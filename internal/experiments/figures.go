package experiments

import (
	"fmt"
	"net"
	"sort"
	"time"

	"eswitch/internal/controller"
	"eswitch/internal/core"
	"eswitch/internal/cpumodel"
	"eswitch/internal/openflow"
	"eswitch/internal/ovs"
	"eswitch/internal/perfmodel"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// Table1 reports the modelled platform (the paper's system-under-test).
func Table1(cfg Config) Result {
	p := cpumodel.DefaultPlatform()
	return Result{
		ID:     "Table 1",
		Title:  "system-under-test datasheet (modelled platform)",
		Header: []string{"parameter", "value"},
		Rows: [][]string{
			{"CPU", p.Name},
			{"L1d cache", fmt.Sprintf("%d KiB, %d cycles", p.L1Size>>10, p.L1Lat)},
			{"L2 cache", fmt.Sprintf("%d KiB, %d cycles", p.L2Size>>10, p.L2Lat)},
			{"L3 cache", fmt.Sprintf("%d MiB, %d cycles", p.L3Size>>20, p.L3Lat)},
			{"DRAM", fmt.Sprintf("%d cycles", p.MemLat)},
			{"cache line", fmt.Sprintf("%d B", p.LineSize)},
			{"frequency", fmt.Sprintf("%.1f GHz", p.FreqGHz)},
		},
	}
}

// Fig3 reports the megaflow cache contents generated for the Fig. 3 port
// table under the paper's two arrival sequences, plus a traffic-dependence
// sweep (64 ports far from the rule against 64 adjacent to it).
func Fig3(cfg Config) Result {
	run := func(ports []uint16) (int, []string) {
		opts := ovs.DefaultOptions()
		opts.ConservativeTransportMask = false
		sw, err := ovs.New(workload.Fig3Pipeline(), opts)
		if err != nil {
			panic(err)
		}
		b := pkt.NewBuilder(128)
		var v openflow.Verdict
		for _, port := range ports {
			frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 1, Dst: 2}, pkt.L4Opts{Src: 9999, Dst: port}))
			sw.Process(&pkt.Packet{Data: frame, InPort: 1}, &v)
		}
		entries := sw.MegaflowEntries()
		strs := make([]string, 0, len(entries))
		for _, m := range entries {
			strs = append(strs, m.String())
		}
		return len(entries), strs
	}
	seq1Count, _ := run(workload.Fig3Seq1)
	seq2Count, _ := run(workload.Fig3Seq2)
	var far, near []uint16
	for p := uint16(0); p < 64; p++ {
		far = append(far, p)
		near = append(near, 128+p)
	}
	farCount, _ := run(far)
	nearCount, _ := run(near)
	return Result{
		ID:     "Fig. 3",
		Title:  "megaflow cache entries generated by the same flow table under different traffic",
		Header: []string{"packet sequence", "megaflow entries", "paper"},
		Rows: [][]string{
			{"seq 1 (190,189,187,183,175,159,191)", fmtInt(seq1Count), "7"},
			{"seq 2 (191 first)", fmtInt(seq2Count), "1"},
			{"64 ports far from the rule (0–63)", fmtInt(farCount), "-"},
			{"64 ports adjacent to the rule (128–191)", fmtInt(nearCount), "-"},
		},
		Notes: []string{
			"seq 2: a per-packet-minimal mask computation provably yields arrival-order-independent cache contents, so the",
			"  paper's single-entry outcome (an artefact of OVS's trie-walk un-wildcarding) is not reproduced; the traffic-",
			"  dependence rows show the same unpredictability the figure argues for.",
		},
	}
}

// Fig9 reports the per-lookup cost of the three table templates as the table
// grows, reproducing the direct-code/hash crossover that calibrates the
// fallback constant at 4.
func Fig9(cfg Config) Result {
	res := Result{
		ID:     "Fig. 9",
		Title:  "running time vs flow-entry count per table template (cycles/packet, whole single-table pipeline)",
		Header: []string{"entries", "direct code", "compound hash", "linked list"},
	}
	buildTable := func(n int, breakHash bool) *openflow.Pipeline {
		pl := openflow.NewPipeline(2)
		t := pl.Table(0)
		for i := 1; i <= n; i++ {
			m := openflow.NewMatch().
				Set(openflow.FieldVLANID, 3).
				Set(openflow.FieldIPSrc, uint64(pkt.IPv4FromOctets(10, 0, 0, 3))).
				Set(openflow.FieldUDPDst, uint64(i))
			t.AddFlow(10, m, openflow.Apply(openflow.Output(1)))
		}
		if breakHash {
			// One heterogeneous low-priority entry pushes the table off
			// the hash template onto the linked list.
			t.AddFlow(1, openflow.NewMatch().Set(openflow.FieldEthSrc, 42), openflow.Apply(openflow.Drop()))
		}
		t.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
		return pl
	}
	measure := func(pl *openflow.Pipeline, force core.TemplateKind, matchLast int) float64 {
		opts := core.DefaultOptions()
		switch force {
		case core.TemplateDirectCode:
			opts.DirectCodeMaxEntries = 1 << 20
		default:
			opts.DirectCodeMaxEntries = -1 // never use the direct-code template
		}
		opts.Meter = cpumodel.NewMeterNoCache(cpumodel.DefaultPlatform())
		dp, err := core.Compile(pl, opts)
		if err != nil {
			panic(err)
		}
		b := pkt.NewBuilder(128)
		frame := pkt.Clone(b.UDPPacket(pkt.EthernetOpts{VLAN: 3},
			pkt.IPv4Opts{Src: pkt.IPv4FromOctets(10, 0, 0, 3), Dst: 9},
			pkt.L4Opts{Src: 1, Dst: uint16(matchLast)}))
		var v openflow.Verdict
		p := pkt.Packet{}
		for i := 0; i < 5000; i++ {
			p = pkt.Packet{Data: frame, InPort: 1}
			dp.Process(&p, &v)
		}
		return opts.Meter.CyclesPerPacket()
	}
	maxEntries := 9
	if cfg.Quick {
		maxEntries = 5
	}
	for n := 1; n <= maxEntries; n++ {
		direct := measure(buildTable(n, false), core.TemplateDirectCode, n)
		hash := measure(buildTable(n, false), core.TemplateHash, n)
		list := measure(buildTable(n, true), core.TemplateLinkedList, n)
		res.Rows = append(res.Rows, []string{fmtInt(n), fmtF(direct), fmtF(hash), fmtF(list)})
	}
	res.Notes = append(res.Notes, "the direct-code cost grows with the entry count and crosses the constant hash cost at ≈4 entries,")
	res.Notes = append(res.Notes, "  which is where the compiler's DirectCodeMaxEntries fallback constant is set (as in the paper)")
	return res
}

// Fig10 is the L2 switching packet-rate sweep.
func Fig10(cfg Config) Result {
	sizes := []int{1, 10, 100, 1000}
	if cfg.Quick {
		sizes = []int{10, 100}
	}
	return packetRateFigure(cfg, "Fig. 10", "L2 switching packet rate vs active flows (MAC table sizes 1/10/100/1K)",
		sizes, func(size int) *workload.UseCase { return workload.L2UseCase(size, 4) })
}

// Fig11 is the L3 routing packet-rate sweep.
func Fig11(cfg Config) Result {
	sizes := []int{1, 10, 1000}
	if cfg.Quick {
		sizes = []int{10}
	}
	return packetRateFigure(cfg, "Fig. 11", "L3 routing packet rate vs active flows (1/10/1K prefixes)",
		sizes, func(size int) *workload.UseCase { return workload.L3UseCase(size, 8, 2016) })
}

// Fig12 is the load-balancer packet-rate sweep.
func Fig12(cfg Config) Result {
	sizes := []int{1, 10, 100}
	if cfg.Quick {
		sizes = []int{10}
	}
	return packetRateFigure(cfg, "Fig. 12", "load balancer packet rate vs active flows (1/10/100 web services)",
		sizes, func(size int) *workload.UseCase { return workload.LoadBalancerUseCase(size) })
}

func gatewayConfig(cfg Config) workload.GatewayConfig {
	gc := workload.DefaultGatewayConfig()
	if cfg.Quick {
		gc.Prefixes = 500
	}
	return gc
}

// gatewayPoint is one active-flow count of the gateway sweep behind
// Figs. 13–16: both switches measured once over the same traffic.
type gatewayPoint struct {
	flows  int
	es, ob measurement
}

// gatewaySweep measures both switches on the gateway use case at every
// active-flow count; Figs. 13–16 are four renderings of one sweep.
func gatewaySweep(cfg Config) []gatewayPoint {
	uc := workload.GatewayUseCase(gatewayConfig(cfg))
	var pts []gatewayPoint
	for _, flows := range cfg.flowSweep() {
		packets := cfg.packets(flows)
		pts = append(pts, gatewayPoint{flows, measureESWITCH(uc, flows, packets), measureBaseline(uc, flows, packets)})
	}
	return pts
}

// Fig13 is the gateway packet-rate sweep with the analytic bounds.
func Fig13(cfg Config) Result { return fig13(gatewaySweep(cfg)) }

func fig13(pts []gatewayPoint) Result {
	bounds := perfmodel.GatewayModel().Bounds(cpumodel.DefaultPlatform())
	res := Result{
		ID:     "Fig. 13",
		Title:  "gateway packet rate vs active flows (10 CEs, 20 users/CE, 10K prefixes)",
		Header: []string{"active flows", "ES Mpps", "ES real Mpps", "OVS Mpps", "OVS real Mpps", "model-ub", "model-lb"},
	}
	for _, pt := range pts {
		res.Rows = append(res.Rows, []string{
			fmtInt(pt.flows), fmtMpps(pt.es.modelPPS), fmtMpps(pt.es.realPPS),
			fmtMpps(pt.ob.modelPPS), fmtMpps(pt.ob.realPPS),
			fmtMpps(bounds.UpperRate), fmtMpps(bounds.LowerRate),
		})
	}
	return res
}

// Fig14 reports the fraction of packets served at each OVS cache level.
func Fig14(cfg Config) Result { return fig14(gatewaySweep(cfg)) }

func fig14(pts []gatewayPoint) Result {
	res := Result{
		ID:     "Fig. 14",
		Title:  "fraction of packets served per OVS datapath level (gateway)",
		Header: []string{"active flows", "microflow", "megaflow", "vswitchd"},
	}
	for _, pt := range pts {
		levels := pt.ob.levels
		total := float64(levels.Total())
		if total == 0 {
			total = 1
		}
		res.Rows = append(res.Rows, []string{
			fmtInt(pt.flows),
			fmtF(float64(levels.Microflow) / total),
			fmtF(float64(levels.Megaflow) / total),
			fmtF(float64(levels.SlowPath) / total),
		})
	}
	return res
}

// Fig15 reports simulated last-level-cache misses per packet.
func Fig15(cfg Config) Result { return fig15(gatewaySweep(cfg)) }

func fig15(pts []gatewayPoint) Result {
	res := Result{
		ID:     "Fig. 15",
		Title:  "LLC misses per packet (gateway, simulated cache hierarchy)",
		Header: []string{"active flows", "ES", "OVS"},
	}
	for _, pt := range pts {
		res.Rows = append(res.Rows, []string{fmtInt(pt.flows), fmt.Sprintf("%.3f", pt.es.llcPkt), fmt.Sprintf("%.3f", pt.ob.llcPkt)})
	}
	return res
}

// Fig16 reports modelled per-packet latency with the analytic bounds.
func Fig16(cfg Config) Result { return fig16(gatewaySweep(cfg)) }

func fig16(pts []gatewayPoint) Result {
	bounds := perfmodel.GatewayModel().Bounds(cpumodel.DefaultPlatform())
	res := Result{
		ID:     "Fig. 16",
		Title:  "latency in CPU cycles per packet (gateway)",
		Header: []string{"active flows", "ES cycles", "OVS cycles", "model-ub cycles", "model-lb cycles", "ES µs", "OVS µs"},
	}
	for _, pt := range pts {
		res.Rows = append(res.Rows, []string{
			fmtInt(pt.flows), fmtF(pt.es.cyclesPkt), fmtF(pt.ob.cyclesPkt),
			fmtF(bounds.UpperCycles), fmtF(bounds.LowerCycles),
			fmt.Sprintf("%.3f", pt.es.latencyUs), fmt.Sprintf("%.3f", pt.ob.latencyUs),
		})
	}
	return res
}

// fig17Installs is how many fresh installs each Fig. 17 cell takes the median
// of: one wall-clock sample per cell let a scheduler hiccup invert the
// CLI/channel order about one run in ten on a shared box.
const fig17Installs = 5

// medianInstall times fig17Installs installs of pl, each into a fresh switch
// from build, and returns the median.
func medianInstall(install func(func() controller.FlowProgrammer, *openflow.Pipeline) time.Duration, build func() controller.FlowProgrammer, pl *openflow.Pipeline) time.Duration {
	var samples [fig17Installs]time.Duration
	for i := range samples {
		samples[i] = install(build, pl)
	}
	sort.Slice(samples[:], func(i, j int) bool { return samples[i] < samples[j] })
	return samples[fig17Installs/2]
}

// Fig17 measures the total time to install the load-balancer pipeline through
// the direct ("CLI") path and through the OpenFlow control channel, each cell
// the median of fig17Installs installs into a fresh switch.
func Fig17(cfg Config) Result {
	sweep := []int{1, 10, 100, 1_000, 10_000}
	if cfg.Quick {
		sweep = []int{1, 10, 100}
	}
	res := Result{
		ID:     "Fig. 17",
		Title:  "total time to install the load-balancer pipeline (seconds)",
		Header: []string{"services", "ES (CLI)", "ES (ctrl)", "OVS (CLI)", "OVS (ctrl)"},
	}
	for _, services := range sweep {
		pl := workload.LoadBalancerUseCase(services).Pipeline
		es := func() controller.FlowProgrammer { return emptyESWITCH() }
		baseline := func() controller.FlowProgrammer { return emptyBaseline() }
		esCLI := medianInstall(timeInstallDirect, es, pl)
		esCtrl := medianInstall(timeInstallChannel, es, pl)
		ovsCLI := medianInstall(timeInstallDirect, baseline, pl)
		ovsCtrl := medianInstall(timeInstallChannel, baseline, pl)
		res.Rows = append(res.Rows, []string{
			fmtInt(services),
			fmt.Sprintf("%.4f", esCLI.Seconds()), fmt.Sprintf("%.4f", esCtrl.Seconds()),
			fmt.Sprintf("%.4f", ovsCLI.Seconds()), fmt.Sprintf("%.4f", ovsCtrl.Seconds()),
		})
	}
	res.Notes = append(res.Notes, "ctrl = flow mods encoded, framed and decoded over a loopback TCP OpenFlow channel; CLI = direct API calls")
	return res
}

func emptyESWITCH() *core.Datapath {
	dp, err := core.Compile(openflow.NewPipeline(4), core.DefaultOptions())
	if err != nil {
		panic(err)
	}
	return dp
}

func emptyBaseline() *ovs.Switch {
	sw, err := ovs.New(openflow.NewPipeline(4), ovs.DefaultOptions())
	if err != nil {
		panic(err)
	}
	return sw
}

func timeInstallDirect(build func() controller.FlowProgrammer, pl *openflow.Pipeline) time.Duration {
	p := build()
	start := time.Now()
	if err := controller.InstallDirect(p, pl); err != nil {
		panic(err)
	}
	return time.Since(start)
}

func timeInstallChannel(build func() controller.FlowProgrammer, pl *openflow.Pipeline) time.Duration {
	p := build()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer ln.Close()
	agent := controller.NewAgent(p)
	done := make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			agent.Serve(conn)
		}
		close(done)
	}()
	ctrl, conn, err := controller.Dial(ln.Addr().String())
	if err != nil {
		panic(err)
	}
	start := time.Now()
	if err := ctrl.InstallPipeline(pl); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	conn.Close()
	<-done
	return elapsed
}

// Fig18 measures forwarding throughput while the gateway's routing table is
// being updated at increasing intensity, normalized to the unloaded rate.
func Fig18(cfg Config) Result {
	sweep := []int{0, 1, 10, 100, 1_000, 10_000, 100_000}
	if cfg.Quick {
		sweep = []int{0, 10, 1_000}
	}
	gc := gatewayConfig(cfg)
	uc := workload.GatewayUseCase(gc)
	const flows = 1000
	packets := cfg.packets(flows)
	res := Result{
		ID:     "Fig. 18",
		Title:  "normalized packet rate under concurrent routing-table updates (gateway, 1K active flows)",
		Header: []string{"updates per second", "ES", "OVS"},
	}

	routePrefix := func(i int) (uint64, int) {
		addr := uint64(pkt.IPv4FromOctets(203, byte(i>>8), byte(i), 0))
		return addr, 24
	}
	measureWithUpdates := func(process func(*pkt.Packet, *openflow.Verdict), meter *cpumodel.Meter,
		applyUpdate func(i int), updatesPerSec int) float64 {
		trace := uc.Trace(flows)
		var p pkt.Packet
		var v openflow.Verdict
		for i := 0; i < flows*2; i++ {
			trace.Next(&p)
			process(&p, &v)
		}
		meter.Reset()
		// Interleave updates with packets at the requested ratio assuming
		// the unloaded modelled packet rate (~10 Mpps): one update every
		// rate/updatesPerSec packets.
		interval := 0
		if updatesPerSec > 0 {
			interval = 10_000_000 / updatesPerSec
			if interval < 1 {
				interval = 1
			}
		}
		update := 0
		for i := 0; i < packets; i++ {
			trace.Next(&p)
			process(&p, &v)
			if interval > 0 && i%interval == 0 {
				applyUpdate(update)
				update++
			}
		}
		return meter.PacketRate()
	}

	// ESWITCH, over a copy: both switches take flow-mods on their own
	// pipeline.
	esOpts := core.DefaultOptions()
	esOpts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
	esDP, err := core.Compile(uc.Pipeline.Clone(), esOpts)
	if err != nil {
		panic(err)
	}
	esUpdate := func(i int) {
		addr, plen := routePrefix(i)
		m := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, addr, plen)
		if i%2 == 0 {
			esDP.AddFlow(workload.GatewayTableRouting, openflow.NewEntry(plen, m, openflow.Apply(openflow.Output(2))))
		} else {
			esDP.DeleteFlow(workload.GatewayTableRouting, m, plen)
		}
	}
	// Baseline.
	ovsOpts := ovs.DefaultOptions()
	ovsOpts.Meter = cpumodel.NewMeter(cpumodel.DefaultPlatform())
	ovsSW, err := ovs.New(uc.Pipeline, ovsOpts)
	if err != nil {
		panic(err)
	}
	ovsUpdate := func(i int) {
		addr, plen := routePrefix(i)
		m := openflow.NewMatch().SetPrefix(openflow.FieldIPDst, addr, plen)
		if i%2 == 0 {
			ovsSW.AddFlow(workload.GatewayTableRouting, openflow.NewEntry(plen, m, openflow.Apply(openflow.Output(2))))
		} else {
			ovsSW.DeleteFlow(workload.GatewayTableRouting, m, plen)
		}
	}

	var esBase, ovsBase float64
	for _, ups := range sweep {
		esRate := measureWithUpdates(esDP.Process, esOpts.Meter, esUpdate, ups)
		ovsRate := measureWithUpdates(ovsSW.ProcessUnlocked, ovsOpts.Meter, ovsUpdate, ups)
		if ups == 0 {
			esBase, ovsBase = esRate, ovsRate
		}
		if esBase == 0 {
			esBase = 1
		}
		if ovsBase == 0 {
			ovsBase = 1
		}
		res.Rows = append(res.Rows, []string{fmtInt(ups), fmtF(esRate / esBase), fmtF(ovsRate / ovsBase)})
	}
	return res
}

// Fig19 is the multi-core scalability experiment: the modelled per-core rate
// is flat, so aggregate throughput scales linearly with cores for both
// switches while ESWITCH keeps its per-core advantage.
func Fig19(cfg Config) Result {
	flowsSet := []int{100, 10_000, 500_000}
	if cfg.Quick {
		flowsSet = []int{100, 1_000}
	}
	for i, f := range flowsSet {
		if f > cfg.MaxFlows {
			flowsSet[i] = cfg.MaxFlows
		}
	}
	uc := workload.L3UseCase(2000, 8, 2016)
	platform := cpumodel.AtomPlatform()
	res := Result{
		ID:     "Fig. 19",
		Title:  "aggregate packet rate vs packet-processing cores (L3, 2K prefixes, Atom platform)",
		Header: []string{"cores"},
	}
	for _, f := range flowsSet {
		res.Header = append(res.Header, fmt.Sprintf("ES(%d flows)", f), fmt.Sprintf("OVS(%d flows)", f))
	}
	// Measure single-core model rates once per flow count, each switch over
	// its own copy of the pipeline, then scale by core count (both designs
	// share nothing per core in this experiment, matching the paper's linear
	// scaling).
	type pair struct{ es, ovs float64 }
	perCore := make([]pair, len(flowsSet))
	for i, f := range flowsSet {
		packets := cfg.packets(f)
		esOpts := core.DefaultOptions()
		esOpts.Meter = cpumodel.NewMeter(platform)
		dp, err := core.Compile(uc.Pipeline.Clone(), esOpts)
		if err != nil {
			panic(err)
		}
		trace := uc.Trace(f)
		es := runTrace(trace, dp.Process, esOpts.Meter, f, packets, nil)

		ovsOpts := ovs.DefaultOptions()
		ovsOpts.Meter = cpumodel.NewMeter(platform)
		sw, err := ovs.New(uc.Pipeline.Clone(), ovsOpts)
		if err != nil {
			panic(err)
		}
		trace2 := uc.Trace(f)
		ob := runTrace(trace2, sw.ProcessUnlocked, ovsOpts.Meter, f, packets, sw.ResetStats)
		perCore[i] = pair{es: es.modelPPS, ovs: ob.modelPPS}
	}
	for cores := 1; cores <= 5; cores++ {
		row := []string{fmtInt(cores)}
		for _, pc := range perCore {
			row = append(row, fmtMpps(pc.es*float64(cores)), fmtMpps(pc.ovs*float64(cores)))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, "per-core rates measured on the Atom platform model; aggregate = per-core × cores (linear scaling, as measured in the paper);")
	res.Notes = append(res.Notes, "  see Fig. 19 (measured) for real multi-worker scaling of one hot RSS port over the Go substrate")
	return res
}

// Fig20 prints the per-stage performance model of the gateway pipeline and
// its throughput bounds.
func Fig20(cfg Config) Result {
	model := perfmodel.GatewayModel()
	p := cpumodel.DefaultPlatform()
	b := model.Bounds(p)
	res := Result{
		ID:     "Fig. 20 / §4.4",
		Title:  "per-stage cycle model of the gateway pipeline",
		Header: []string{"pipeline stage", "CPU cycles", "comment"},
	}
	for _, s := range model.Stages {
		cost := fmtInt(s.Fixed)
		if s.MemAccesses == 1 {
			cost += "+Lx"
		} else if s.MemAccesses > 1 {
			cost += fmt.Sprintf("+%d*Lx", s.MemAccesses)
		}
		res.Rows = append(res.Rows, []string{s.Name, cost, s.Comment})
	}
	res.Rows = append(res.Rows,
		[]string{"total", fmt.Sprintf("%d+%d*Lx", model.FixedCycles(), model.MemAccesses()), ""},
		[]string{"optimistic (all L1)", fmtF(b.UpperCycles) + " cycles", fmtMpps(b.UpperRate) + " Mpps (paper: 178 / 11.2)"},
		[]string{"L2 working set", fmtF(b.MidCycles) + " cycles", fmtMpps(b.MidRate) + " Mpps (paper: 202 / 9.9)"},
		[]string{"pessimistic (all L3)", fmtF(b.LowerCycles) + " cycles", fmtMpps(b.LowerRate) + " Mpps (paper: 253 / 7.9)"},
	)
	return res
}

// Decomposition reproduces the §3.2 ACL decomposition experiment.
func Decomposition(cfg Config) Result {
	res := Result{
		ID:     "§3.2",
		Title:  "flow-table decomposition of snort-like ACL sets",
		Header: []string{"input", "ACL rules", "tables after decomposition", "paper"},
	}
	opts := core.DefaultOptions()
	for _, c := range []struct {
		name  string
		rules int
		seed  int64
		paper string
	}{
		{"active rule set", 72, 11, "50"},
		{"with obsolete rules", 369, 12, "197"},
	} {
		acls := workload.GenerateACLs(c.rules, c.seed)
		pl := workload.ACLPipeline(acls)
		decomposed, _ := core.DecomposePipeline(pl, opts)
		res.Rows = append(res.Rows, []string{c.name, fmtInt(c.rules), fmtInt(decomposed.NumTables()), c.paper})
	}
	// The well-formed pipelines (gateway, L2, L3) must come back intact.
	for _, uc := range []*workload.UseCase{
		workload.L2UseCase(100, 4),
		workload.L3UseCase(1000, 8, 1),
		workload.GatewayUseCase(workload.GatewayConfig{CEs: 4, UsersPerCE: 8, Prefixes: 500, Seed: 3}),
	} {
		before := uc.Pipeline.NumTables()
		decomposed, extra := core.DecomposePipeline(uc.Pipeline, opts)
		res.Rows = append(res.Rows, []string{uc.Name + " (production-style)", fmtInt(uc.Pipeline.NumEntries()),
			fmt.Sprintf("%d (unchanged: %v)", decomposed.NumTables(), extra == 0 && decomposed.NumTables() == before), "input intact"})
	}
	return res
}

// All runs every experiment at the given scale.
func All(cfg Config) []Result {
	gw := gatewaySweep(cfg)
	return []Result{
		Table1(cfg),
		Fig3(cfg),
		Fig9(cfg),
		Fig10(cfg),
		Fig11(cfg),
		Fig12(cfg),
		fig13(gw),
		fig14(gw),
		fig15(gw),
		fig16(gw),
		Fig17(cfg),
		Fig18(cfg),
		Fig19(cfg),
		Fig19Measured(cfg),
		Fig20(cfg),
		Decomposition(cfg),
		FlowSetupRate(cfg),
	}
}
