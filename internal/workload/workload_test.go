package workload

import (
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

func TestGenerateRoutesDeterministicAndValid(t *testing.T) {
	a := GenerateRoutes(1000, 8, 42)
	b := GenerateRoutes(1000, 8, 42)
	if len(a) != 1000 || len(b) != 1000 {
		t.Fatalf("route counts %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("route generation not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i].Prefix < 8 || a[i].Prefix > 32 {
			t.Fatalf("prefix length out of range: %v", a[i])
		}
		if a[i].NextHop == 0 || a[i].NextHop > 8 {
			t.Fatalf("next hop out of range: %v", a[i])
		}
		inside := AddressInside(a[i], i)
		mask := uint32(0xffffffff) << (32 - uint(a[i].Prefix))
		if uint32(inside)&mask != uint32(a[i].Addr) {
			t.Fatalf("AddressInside left the prefix: %v not in %v", inside, a[i])
		}
	}
	// Mostly /20–/24 prefixes, as in the Internet.
	count24ish := 0
	for _, r := range a {
		if r.Prefix >= 20 && r.Prefix <= 24 {
			count24ish++
		}
	}
	if count24ish < 600 {
		t.Fatalf("prefix length distribution looks wrong: %d/1000 in /20–/24", count24ish)
	}
}

func interp(t *testing.T, pl *openflow.Pipeline, p *pkt.Packet) *openflow.Verdict {
	t.Helper()
	in := openflow.NewInterpreter(pl)
	v := &openflow.Verdict{}
	in.Process(p, v, nil)
	return v
}

func tracePacket(uc *UseCase, flows, idx int) *pkt.Packet {
	tr := uc.Trace(flows)
	p := &pkt.Packet{}
	for i := 0; i <= idx; i++ {
		tr.Next(p)
	}
	// Copy the frame so the caller may parse/modify freely.
	p.Data = append([]byte(nil), p.Data...)
	return p
}

func TestL2UseCase(t *testing.T) {
	uc := L2UseCase(100, 4)
	if err := uc.Pipeline.Validate(); err != nil {
		t.Fatal(err)
	}
	if uc.Pipeline.Table(0).Len() != 101 {
		t.Fatalf("table size %d", uc.Pipeline.Table(0).Len())
	}
	// Every generated packet must hit a learned MAC (no flood).
	tr := uc.Trace(1000)
	if tr.NumFlows() != 1000 {
		t.Fatalf("flows %d", tr.NumFlows())
	}
	p := &pkt.Packet{}
	for i := 0; i < 200; i++ {
		tr.Next(p)
		q := &pkt.Packet{Data: append([]byte(nil), p.Data...), InPort: p.InPort}
		v := interp(t, uc.Pipeline, q)
		if !v.Forwarded() || len(v.OutPorts) != 1 {
			t.Fatalf("packet %d floods or drops: %v", i, v.String())
		}
	}
}

func TestL3UseCase(t *testing.T) {
	uc := L3UseCase(500, 8, 7)
	if err := uc.Pipeline.Validate(); err != nil {
		t.Fatal(err)
	}
	tr := uc.Trace(100)
	p := &pkt.Packet{}
	for i := 0; i < 100; i++ {
		tr.Next(p)
		q := &pkt.Packet{Data: append([]byte(nil), p.Data...), InPort: p.InPort}
		v := interp(t, uc.Pipeline, q)
		if !v.Forwarded() {
			t.Fatalf("packet %d missed the RIB: %v", i, v.String())
		}
	}
}

func TestLoadBalancerUseCase(t *testing.T) {
	uc := LoadBalancerUseCase(10)
	if err := uc.Pipeline.Validate(); err != nil {
		t.Fatal(err)
	}
	forwarded, dropped := 0, 0
	tr := uc.Trace(200)
	p := &pkt.Packet{}
	for i := 0; i < 200; i++ {
		tr.Next(p)
		q := &pkt.Packet{Data: append([]byte(nil), p.Data...), InPort: p.InPort}
		v := interp(t, uc.Pipeline, q)
		switch {
		case v.Forwarded():
			forwarded++
			if v.OutPorts[0] != 3 && v.OutPorts[0] != 4 {
				t.Fatalf("web traffic must go to a backend port: %v", v.String())
			}
		default:
			dropped++
		}
	}
	// Half the trace is web traffic, half is dropped.
	if forwarded == 0 || dropped == 0 {
		t.Fatalf("unexpected traffic split: forwarded=%d dropped=%d", forwarded, dropped)
	}
}

func TestLoadBalancerSplitsBySourceBit(t *testing.T) {
	uc := LoadBalancerUseCase(3)
	b := pkt.NewBuilder(128)
	mk := func(src pkt.IPv4) *pkt.Packet {
		frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: src, Dst: serviceIP(1)}, pkt.L4Opts{Src: 1234, Dst: 80}))
		return &pkt.Packet{Data: frame, InPort: 1}
	}
	vLow := interp(t, uc.Pipeline, mk(pkt.IPv4FromOctets(9, 1, 1, 1)))    // first bit 0
	vHigh := interp(t, uc.Pipeline, mk(pkt.IPv4FromOctets(200, 1, 1, 1))) // first bit 1
	if !vLow.Forwarded() || !vHigh.Forwarded() {
		t.Fatalf("both halves must be forwarded: %v %v", vLow.String(), vHigh.String())
	}
	if vLow.OutPorts[0] == vHigh.OutPorts[0] {
		t.Fatal("load balancer must split by the first source-address bit")
	}
}

func TestGatewayUseCase(t *testing.T) {
	cfg := GatewayConfig{CEs: 3, UsersPerCE: 4, Prefixes: 200, Seed: 1}
	uc := GatewayUseCase(cfg)
	if err := uc.Pipeline.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected table inventory: classifier, vlan dispatch, 3 per-CE,
	// routing, downlink.
	if got := uc.Pipeline.NumTables(); got != 7 {
		t.Fatalf("gateway tables: %d", got)
	}
	// Uplink traffic is NATed and routed to the network port.
	tr := uc.Trace(50)
	p := &pkt.Packet{}
	for i := 0; i < 50; i++ {
		tr.Next(p)
		q := &pkt.Packet{Data: append([]byte(nil), p.Data...), InPort: p.InPort}
		v := interp(t, uc.Pipeline, q)
		if !v.Forwarded() || v.OutPorts[0] != gatewayNetworkPort {
			t.Fatalf("uplink packet %d: %v", i, v.String())
		}
		if q.Headers.IPSrc == gatewayPrivateIP(0, 0) && q.Headers.Has(pkt.ProtoIPv4) {
			// The source must have been rewritten to a public address
			// for at least the first user; spot check.
			if uint32(q.Headers.IPSrc)>>24 == 10 {
				t.Fatalf("packet %d kept its private source address", i)
			}
		}
	}
	// Downlink traffic towards a public address goes back to the user port.
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
		pkt.IPv4Opts{Src: pkt.IPv4FromOctets(8, 8, 8, 8), Dst: gatewayPublicIP(1, 2)},
		pkt.L4Opts{Src: 80, Dst: 40000}))
	q := &pkt.Packet{Data: frame, InPort: gatewayNetworkPort}
	v := interp(t, uc.Pipeline, q)
	if !v.Forwarded() || v.OutPorts[0] != gatewayUserPort {
		t.Fatalf("downlink packet: %v", v.String())
	}
	if q.Headers.IPDst != gatewayPrivateIP(1, 2) {
		t.Fatalf("downlink packet not NATed back: %v", q.Headers.IPDst)
	}
	// Traffic from an unknown user goes to the controller.
	unknown := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{VLAN: gatewayVLAN(0)},
		pkt.IPv4Opts{Src: pkt.IPv4FromOctets(10, 0, 3, 99), Dst: pkt.IPv4FromOctets(8, 8, 8, 8)},
		pkt.L4Opts{Src: 1, Dst: 80}))
	q = &pkt.Packet{Data: unknown, InPort: gatewayUserPort}
	if v := interp(t, uc.Pipeline, q); !v.ToController {
		t.Fatalf("unknown user should be punted to the controller: %v", v.String())
	}
}

func TestFirewallPipelines(t *testing.T) {
	single, multi := FirewallSingleStage(), FirewallMultiStage()
	if err := single.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := multi.Validate(); err != nil {
		t.Fatal(err)
	}
	b := pkt.NewBuilder(128)
	for _, dport := range []uint16{80, 22} {
		for inPort := uint32(1); inPort <= 2; inPort++ {
			frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
				pkt.IPv4Opts{Src: pkt.IPv4FromOctets(198, 51, 100, 9), Dst: WebServerIP},
				pkt.L4Opts{Src: 5555, Dst: dport}))
			v1 := interp(t, single, &pkt.Packet{Data: frame, InPort: inPort})
			v2 := interp(t, multi, &pkt.Packet{Data: append([]byte(nil), frame...), InPort: inPort})
			if !v1.Equivalent(v2) {
				t.Fatalf("firewall pipelines diverge for in=%d dport=%d: %v vs %v", inPort, dport, v1.String(), v2.String())
			}
		}
	}
}

func TestGenerateACLs(t *testing.T) {
	rules := GenerateACLs(72, 3)
	if len(rules) != 72 {
		t.Fatalf("rules %d", len(rules))
	}
	again := GenerateACLs(72, 3)
	for i := range rules {
		if !rules[i].Match.Equal(again[i].Match) {
			t.Fatalf("ACL generation not deterministic at %d", i)
		}
	}
	pl := ACLPipeline(rules)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if pl.Table(0).Len() != 73 { // rules + final allow
		t.Fatalf("table size %d", pl.Table(0).Len())
	}
}

func TestFig3Workload(t *testing.T) {
	pl := Fig3Pipeline()
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(Fig3Seq1) != 7 || len(Fig3Seq2) != 7 || Fig3Seq2[0] != 191 {
		t.Fatal("Fig. 3 sequences malformed")
	}
}

func TestTraceDeterminism(t *testing.T) {
	uc := GatewayUseCase(GatewayConfig{CEs: 2, UsersPerCE: 2, Prefixes: 50, Seed: 5})
	a, b := uc.Trace(64), uc.Trace(64)
	pa, pb := &pkt.Packet{}, &pkt.Packet{}
	for i := 0; i < 200; i++ {
		a.Next(pa)
		b.Next(pb)
		if pa.InPort != pb.InPort || len(pa.Data) != len(pb.Data) {
			t.Fatalf("trace not deterministic at %d", i)
		}
		for j := range pa.Data {
			if pa.Data[j] != pb.Data[j] {
				t.Fatalf("trace frames differ at packet %d byte %d", i, j)
			}
		}
	}
}
