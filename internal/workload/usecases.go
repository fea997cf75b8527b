package workload

import (
	"math/rand"
	"sort"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/pktgen"
)

// UseCase bundles a pipeline with a traffic generator sweeping the active
// flow set — the two ingredients every evaluation figure needs.
type UseCase struct {
	// Name identifies the use case ("l2", "l3", "loadbalancer", "gateway").
	Name string
	// Pipeline is the OpenFlow pipeline the switch under test is
	// configured with.
	Pipeline *openflow.Pipeline
	// Trace builds a traffic trace with the given number of active flows.
	Trace func(activeFlows int) *pktgen.Trace
}

// ---------------------------------------------------------------------------
// L2 switching (§4.1): exact matching on a MAC table.
// ---------------------------------------------------------------------------

func l2MAC(i int) pkt.MAC { return pkt.MACFromUint64(0x020000000000 + uint64(i)) }

// L2UseCase builds the MAC-forwarding use case with tableSize learned
// addresses.  The generated traffic only uses destination addresses present
// in the table (the paper aligns destinations to avoid table misses) and
// varies the source address and transport tuple to grow the active flow set.
func L2UseCase(tableSize int, numPorts int) *UseCase {
	if numPorts < 2 {
		numPorts = 4
	}
	pl := openflow.NewPipeline(numPorts)
	t0 := pl.Table(0)
	t0.Name = "mac"
	for i := 0; i < tableSize; i++ {
		t0.AddFlow(100, openflow.NewMatch().Set(openflow.FieldEthDst, l2MAC(i).Uint64()),
			openflow.Apply(openflow.Output(uint32(1+i%numPorts))))
	}
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Flood()))

	return &UseCase{
		Name:     "l2",
		Pipeline: pl,
		Trace: func(activeFlows int) *pktgen.Trace {
			if activeFlows < 1 {
				activeFlows = 1
			}
			flows := make([]pktgen.Flow, 0, activeFlows)
			for f := 0; f < activeFlows; f++ {
				flows = append(flows, pktgen.Flow{
					InPort: uint32(1 + f%numPorts),
					DstMAC: l2MAC(f % tableSize),
					SrcMAC: pkt.MACFromUint64(0x0a0000000000 + uint64(f)),
					L2Only: true,
				})
			}
			return pktgen.NewTrace(flows, int64(activeFlows)+1)
		},
	}
}

// installRoutes fills a RIB table with dec_ttl+output entries for the routes,
// installing in decreasing prefix-length (= priority) order: every insert
// then hits FlowTable.Add's append fast path, which keeps building a
// full-scale RIB (100K+ prefixes) linear instead of quadratic.  The caller's
// route slice is left in its original order (the traffic generators index
// it), and nextHop maps each route to its egress port.
func installRoutes(t *openflow.FlowTable, routes []Route, nextHop func(Route) uint32) {
	installOrder := append([]Route(nil), routes...)
	sort.Slice(installOrder, func(i, j int) bool { return installOrder[i].Prefix > installOrder[j].Prefix })
	for _, r := range installOrder {
		t.AddFlow(r.Prefix, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, uint64(r.Addr), r.Prefix),
			openflow.Apply(openflow.DecTTL(), openflow.Output(nextHop(r))))
	}
}

// ---------------------------------------------------------------------------
// L2 switching with port security: the OVS "NORMAL"-shaped two-stage bridge.
// ---------------------------------------------------------------------------

// L2PortSecurityUseCase builds a production-shaped two-stage L2 bridge:
// table 0 validates the (in_port, eth_src) binding of every known station
// (port security / MAC learning check — a compound hash over two fields),
// table 1 forwards by destination address exactly like L2UseCase.  Unknown
// sources are punted to the controller for learning; unknown destinations
// flood.  At full scale (100K+ stations) every packet takes two large-table
// hash lookups, which is the regime where memoizing the whole pipeline's
// verdict per microflow pays even under uniform traffic.
func L2PortSecurityUseCase(stations, numPorts int) *UseCase {
	if numPorts < 2 {
		numPorts = 4
	}
	stationPort := func(i int) uint32 { return uint32(1 + i%numPorts) }
	pl := openflow.NewPipeline(numPorts)
	t0 := pl.Table(0)
	t0.Name = "port-security"
	t1 := pl.AddTable(1)
	t1.Name = "mac"
	for i := 0; i < stations; i++ {
		t0.AddFlow(100, openflow.NewMatch().
			Set(openflow.FieldInPort, uint64(stationPort(i))).
			Set(openflow.FieldEthSrc, l2MAC(i).Uint64()),
			openflow.Goto(1))
		t1.AddFlow(100, openflow.NewMatch().Set(openflow.FieldEthDst, l2MAC(i).Uint64()),
			openflow.Apply(openflow.Output(stationPort(i))))
	}
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.ToController()))
	t1.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Flood()))

	return &UseCase{
		Name:     "l2-portsec",
		Pipeline: pl,
		Trace: func(activeFlows int) *pktgen.Trace {
			if activeFlows < 1 {
				activeFlows = 1
			}
			flows := make([]pktgen.Flow, 0, activeFlows)
			for f := 0; f < activeFlows; f++ {
				src := f % stations
				dst := int((uint64(f)*2654435761 + 12345) % uint64(stations))
				flows = append(flows, pktgen.Flow{
					InPort: stationPort(src),
					SrcMAC: l2MAC(src),
					DstMAC: l2MAC(dst),
					L2Only: true,
				})
			}
			return pktgen.NewTrace(flows, int64(activeFlows)+3)
		},
	}
}

// ---------------------------------------------------------------------------
// L2 learning: the reactive slow-path use case (empty table, controller
// learns).
// ---------------------------------------------------------------------------

// L2LearningUseCase builds the reactive counterpart of L2UseCase: the
// pipeline starts EMPTY with table-miss-punts-to-controller behaviour, and a
// reactive L2 learning controller is expected to fill the MAC table at
// runtime from the resulting PacketIns (controller.LearningSwitch).  The
// traffic is a full sweep over host pairs — every host appears as a source,
// so a learning controller converges after one pass and the punt rate decays
// to zero.  hosts are stationed round-robin on the ports exactly like
// L2UseCase, so the learned flow table ends up equivalent to L2UseCase's
// pre-installed one.
func L2LearningUseCase(hosts, numPorts int) *UseCase {
	if numPorts < 2 {
		numPorts = 4
	}
	if hosts < 2 {
		hosts = 2
	}
	pl := openflow.NewPipeline(numPorts)
	pl.Miss = openflow.MissController
	pl.Table(0).Name = "mac (learned)"

	return &UseCase{
		Name:     "l2-learning",
		Pipeline: pl,
		Trace: func(activeFlows int) *pktgen.Trace {
			if activeFlows < hosts {
				activeFlows = hosts // every host must speak for convergence
			}
			flows := make([]pktgen.Flow, 0, activeFlows)
			for f := 0; f < activeFlows; f++ {
				src := f % hosts
				// A derangement-ish pairing so destinations cover the host
				// set without self-traffic.
				dst := (src + 1 + int((uint64(f)*2654435761)%uint64(hosts-1))) % hosts
				flows = append(flows, pktgen.Flow{
					InPort: uint32(1 + src%numPorts),
					SrcMAC: l2MAC(src),
					DstMAC: l2MAC(dst),
					L2Only: true,
				})
			}
			return pktgen.NewTrace(flows, int64(activeFlows)+7)
		},
	}
}

// ---------------------------------------------------------------------------
// L3 routing (§4.1): longest prefix match over a routing table.
// ---------------------------------------------------------------------------

// L3UseCase builds the IP-routing use case over a synthetic RIB of the given
// size.  Traffic destinations are drawn from the installed prefixes so every
// packet finds a route, and the active flow set varies destinations and
// transport ports.
func L3UseCase(numPrefixes int, numPorts int, seed int64) *UseCase {
	if numPorts < 2 {
		numPorts = 8
	}
	routes := GenerateRoutes(numPrefixes, numPorts, seed)
	pl := openflow.NewPipeline(numPorts)
	t0 := pl.Table(0)
	t0.Name = "rib"
	installRoutes(t0, routes, func(r Route) uint32 { return r.NextHop })
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))

	return &UseCase{
		Name:     "l3",
		Pipeline: pl,
		Trace: func(activeFlows int) *pktgen.Trace {
			if activeFlows < 1 {
				activeFlows = 1
			}
			rng := rand.New(rand.NewSource(seed ^ int64(activeFlows)))
			flows := make([]pktgen.Flow, 0, activeFlows)
			for f := 0; f < activeFlows; f++ {
				r := routes[rng.Intn(len(routes))]
				flows = append(flows, pktgen.Flow{
					InPort:  1,
					SrcMAC:  pkt.MACFromUint64(2),
					DstMAC:  pkt.MACFromUint64(1),
					SrcIP:   pkt.IPv4FromOctets(198, 18, byte(f>>8), byte(f)),
					DstIP:   AddressInside(r, f),
					SrcPort: uint16(1024 + f%60000),
					DstPort: 80,
				})
			}
			return pktgen.NewTrace(flows, seed+int64(activeFlows))
		},
	}
}

// ---------------------------------------------------------------------------
// L3 routing behind a flow-admission ACL: the router + conntrack-offload
// shape.
// ---------------------------------------------------------------------------

// L3ACLRouterUseCase builds a production-shaped two-stage router: table 0
// admits known transport flows by exact 5-tuple (a conntrack-offload /
// stateless-ACL whitelist — compound hash over four fields), table 1 is the
// L3UseCase RIB (DIR-24-8 LPM).  Traffic sweeps the admitted tuples, so at
// full scale every packet takes one large-hash and one LPM lookup — two cold
// structures that a single microflow-cache probe replaces.
func L3ACLRouterUseCase(numTuples, numPrefixes, numPorts int, seed int64) *UseCase {
	if numPorts < 2 {
		numPorts = 8
	}
	routes := GenerateRoutes(numPrefixes, numPorts, seed)
	type tuple struct {
		src, dst pkt.IPv4
		sport    uint16
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	tuples := make([]tuple, numTuples)
	for i := range tuples {
		r := routes[rng.Intn(len(routes))]
		tuples[i] = tuple{
			src:   pkt.IPv4FromOctets(198, 18, byte(i>>8), byte(i)),
			dst:   AddressInside(r, i),
			sport: uint16(1024 + i%60000),
		}
	}

	pl := openflow.NewPipeline(numPorts)
	t0 := pl.Table(0)
	t0.Name = "acl"
	rib := pl.AddTable(1)
	rib.Name = "rib"
	for _, tp := range tuples {
		t0.AddFlow(100, openflow.NewMatch().
			Set(openflow.FieldIPSrc, uint64(tp.src)).
			Set(openflow.FieldIPDst, uint64(tp.dst)).
			Set(openflow.FieldTCPSrc, uint64(tp.sport)).
			Set(openflow.FieldTCPDst, 80),
			openflow.Goto(1))
	}
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	installRoutes(rib, routes, func(r Route) uint32 { return r.NextHop })
	rib.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))

	return &UseCase{
		Name:     "l3-acl",
		Pipeline: pl,
		Trace: func(activeFlows int) *pktgen.Trace {
			if activeFlows < 1 {
				activeFlows = 1
			}
			flows := make([]pktgen.Flow, 0, activeFlows)
			for f := 0; f < activeFlows; f++ {
				tp := tuples[f%len(tuples)]
				flows = append(flows, pktgen.Flow{
					InPort:  1,
					SrcMAC:  pkt.MACFromUint64(2),
					DstMAC:  pkt.MACFromUint64(1),
					SrcIP:   tp.src,
					DstIP:   tp.dst,
					SrcPort: tp.sport,
					DstPort: 80,
				})
			}
			return pktgen.NewTrace(flows, seed+int64(activeFlows))
		},
	}
}

// ---------------------------------------------------------------------------
// Load balancer (§4.1, Fig. 7): a web frontend splitting HTTP traffic per
// service across two backends by the first bit of the source address.
// ---------------------------------------------------------------------------

func serviceIP(i int) pkt.IPv4 { return pkt.IPv4FromOctets(198, 51, byte(i>>8), byte(i)) }

// LoadBalancerUseCase builds the Fig. 7a single-table pipeline for the given
// number of web services.  Port 1 faces the Internet, port 2 the backends;
// backends A and B are reached through ports 3 and 4.
func LoadBalancerUseCase(numServices int) *UseCase {
	pl := openflow.NewPipeline(4)
	t0 := pl.Table(0)
	t0.Name = "loadbalancer"
	for s := 0; s < numServices; s++ {
		ip := uint64(serviceIP(s))
		mA := openflow.NewMatch().
			Set(openflow.FieldIPDst, ip).
			Set(openflow.FieldTCPDst, 80).
			SetMasked(openflow.FieldIPSrc, 0, 0x80000000)
		t0.AddFlow(20, mA, openflow.Apply(openflow.Output(3)))
		mB := openflow.NewMatch().
			Set(openflow.FieldIPDst, ip).
			Set(openflow.FieldTCPDst, 80).
			SetMasked(openflow.FieldIPSrc, 0x80000000, 0x80000000)
		t0.AddFlow(20, mB, openflow.Apply(openflow.Output(4)))
	}
	// Reverse direction: traffic from the backends is forwarded
	// unconditionally to the Internet-facing port.
	t0.AddFlow(10, openflow.NewMatch().Set(openflow.FieldInPort, 2), openflow.Apply(openflow.Output(1)))
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))

	return &UseCase{
		Name:     "loadbalancer",
		Pipeline: pl,
		Trace: func(activeFlows int) *pktgen.Trace {
			if activeFlows < 1 {
				activeFlows = 1
			}
			rng := rand.New(rand.NewSource(int64(numServices)*1000 + int64(activeFlows)))
			flows := make([]pktgen.Flow, 0, activeFlows)
			for f := 0; f < activeFlows; f++ {
				var flow pktgen.Flow
				if f%2 == 0 {
					// Web traffic towards a random service.
					flow = pktgen.Flow{
						InPort:  1,
						SrcIP:   pkt.IPv4(rng.Uint32()),
						DstIP:   serviceIP(rng.Intn(numServices)),
						SrcPort: uint16(1024 + rng.Intn(60000)),
						DstPort: 80,
					}
				} else {
					// Non-web traffic that the pipeline drops.
					flow = pktgen.Flow{
						InPort:  1,
						SrcIP:   pkt.IPv4(rng.Uint32()),
						DstIP:   serviceIP(rng.Intn(numServices)),
						SrcPort: uint16(1024 + rng.Intn(60000)),
						DstPort: 22,
					}
				}
				flow.SrcMAC = pkt.MACFromUint64(2)
				flow.DstMAC = pkt.MACFromUint64(1)
				flows = append(flows, flow)
			}
			return pktgen.NewTrace(flows, int64(activeFlows)+7)
		},
	}
}

// ---------------------------------------------------------------------------
// Telco access gateway (§4.1, Fig. 8): a virtual provider endpoint with
// per-CE user tables, NAT-style address swapping and an Internet routing
// table.
// ---------------------------------------------------------------------------

// GatewayConfig parameterizes the access-gateway use case.
type GatewayConfig struct {
	CEs        int
	UsersPerCE int
	Prefixes   int
	Seed       int64
}

// DefaultGatewayConfig returns the paper's configuration: 10 CEs, 20 users
// per CE, 10K routing prefixes.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{CEs: 10, UsersPerCE: 20, Prefixes: 10000, Seed: 2016}
}

// Table layout of the gateway pipeline.
const (
	// GatewayTableClassifier is Table 0: it splits user→network from
	// network→user traffic by ingress port.
	GatewayTableClassifier openflow.TableID = 0
	// GatewayTableVLANDispatch identifies the CE by its VLAN tag.
	GatewayTableVLANDispatch openflow.TableID = 5
	gatewayTablePerCEBase    openflow.TableID = 10
	// GatewayTableRouting is Table 110 of Fig. 8b, the IP routing table.
	GatewayTableRouting  openflow.TableID = 110
	GatewayTableDownlink openflow.TableID = 200
	gatewayUserPort                       = 1
	gatewayNetworkPort                    = 2
)

func gatewayVLAN(ce int) uint16 { return uint16(100 + ce) }

func gatewayPrivateIP(ce, user int) pkt.IPv4 {
	return pkt.IPv4FromOctets(10, byte(ce), byte(user>>8), byte(user))
}

func gatewayPublicIP(ce, user int) pkt.IPv4 {
	return pkt.IPv4FromOctets(100, 64+byte(ce), byte(user>>8), byte(user))
}

// GatewayTableForCE returns the per-CE flow table ID.
func GatewayTableForCE(ce int) openflow.TableID {
	return gatewayTablePerCEBase + openflow.TableID(ce)
}

// GatewayUseCase builds the Fig. 8 access-gateway pipeline.
func GatewayUseCase(cfg GatewayConfig) *UseCase {
	pl := openflow.NewPipeline(2)
	pl.Miss = openflow.MissController

	t0 := pl.Table(GatewayTableClassifier)
	t0.Name = "classifier"
	vlanDispatch := pl.AddTable(GatewayTableVLANDispatch)
	vlanDispatch.Name = "vlan-dispatch"
	routing := pl.AddTable(GatewayTableRouting)
	routing.Name = "rib"
	down := pl.AddTable(GatewayTableDownlink)
	down.Name = "downlink"

	// Table 0: split user→network from network→user traffic by ingress
	// port (a tiny table — the direct-code template).
	t0.AddFlow(100, openflow.NewMatch().Set(openflow.FieldInPort, gatewayUserPort), openflow.Goto(GatewayTableVLANDispatch))
	t0.AddFlow(50, openflow.NewMatch().Set(openflow.FieldInPort, gatewayNetworkPort), openflow.Goto(GatewayTableDownlink))
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.ToController()))

	// VLAN dispatch and per-CE user tables.
	for ce := 0; ce < cfg.CEs; ce++ {
		perCE := pl.AddTable(GatewayTableForCE(ce))
		perCE.Name = "ce"
		vlanDispatch.AddFlow(100, openflow.NewMatch().Set(openflow.FieldVLANID, uint64(gatewayVLAN(ce))),
			openflow.Goto(perCE.ID))
		// Per-CE table: identify the user by private source address, swap
		// it for the public address (simple NAT) and route.
		for u := 0; u < cfg.UsersPerCE; u++ {
			perCE.AddFlow(100, openflow.NewMatch().Set(openflow.FieldIPSrc, uint64(gatewayPrivateIP(ce, u))),
				openflow.ApplyThenGoto(GatewayTableRouting,
					openflow.SetField(openflow.FieldIPSrc, uint64(gatewayPublicIP(ce, u))),
					openflow.PopVLAN()))
		}
		// Unknown users go to the controller for admission control.
		perCE.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.ToController()))
	}
	vlanDispatch.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.ToController()))

	// Table 110: the Internet routing table.
	routes := GenerateRoutes(cfg.Prefixes, 1, cfg.Seed)
	installRoutes(routing, routes, func(Route) uint32 { return gatewayNetworkPort })
	routing.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Output(gatewayNetworkPort)))

	// Table 200: map public addresses back to the user (reverse direction).
	for ce := 0; ce < cfg.CEs; ce++ {
		for u := 0; u < cfg.UsersPerCE; u++ {
			down.AddFlow(100, openflow.NewMatch().Set(openflow.FieldIPDst, uint64(gatewayPublicIP(ce, u))),
				openflow.Apply(
					openflow.SetField(openflow.FieldIPDst, uint64(gatewayPrivateIP(ce, u))),
					openflow.PushVLAN(gatewayVLAN(ce)),
					openflow.Output(gatewayUserPort)))
		}
	}
	down.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.ToController()))

	return &UseCase{
		Name:     "gateway",
		Pipeline: pl,
		Trace: func(activeFlows int) *pktgen.Trace {
			return GatewayTrace(cfg, routes, activeFlows)
		},
	}
}

// GatewayTrace builds user→network traffic for the gateway: the active flow
// set varies the per-user transport flows (the paper's Fig. 13 sweep).
func GatewayTrace(cfg GatewayConfig, routes []Route, activeFlows int) *pktgen.Trace {
	if activeFlows < 1 {
		activeFlows = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(activeFlows)))
	flows := make([]pktgen.Flow, 0, activeFlows)
	users := cfg.CEs * cfg.UsersPerCE
	for f := 0; f < activeFlows; f++ {
		user := f % users
		ce := user % cfg.CEs
		u := user / cfg.CEs
		r := routes[rng.Intn(len(routes))]
		flows = append(flows, pktgen.Flow{
			InPort:  gatewayUserPort,
			SrcMAC:  pkt.MACFromUint64(0x0c0000000000 + uint64(user)),
			DstMAC:  pkt.MACFromUint64(1),
			VLAN:    gatewayVLAN(ce),
			SrcIP:   gatewayPrivateIP(ce, u),
			DstIP:   AddressInside(r, f),
			SrcPort: uint16(1024 + (f/users)%60000),
			DstPort: 80,
		})
	}
	return pktgen.NewTrace(flows, cfg.Seed+int64(activeFlows))
}

// ---------------------------------------------------------------------------
// Cross-connect: pure port-to-port forwarding, the real-I/O smoke topology.
// ---------------------------------------------------------------------------

// XConnectUseCase builds the cross-connect use case: ports are patched in
// pairs (1<->2, 3<->4, ...) purely by ingress port, with no addressing or
// learning involved.  It is the canonical pipeline for real packet I/O — an
// eswitchd with two AF_PACKET ports forwards every frame arriving on one
// interface out the other, like a bump-in-the-wire — and the simplest
// possible single-table workload everywhere else.  numPorts is rounded up to
// an even count of at least two; frames from unpatched ports (there are none
// after rounding) and port 0 drop via the table-miss entry.
func XConnectUseCase(numPorts int) *UseCase {
	if numPorts < 2 {
		numPorts = 2
	}
	if numPorts%2 == 1 {
		numPorts++
	}
	pl := openflow.NewPipeline(numPorts)
	t0 := pl.Table(0)
	t0.Name = "xconnect"
	for p := 1; p <= numPorts; p += 2 {
		t0.AddFlow(100, openflow.NewMatch().Set(openflow.FieldInPort, uint64(p)),
			openflow.Apply(openflow.Output(uint32(p+1))))
		t0.AddFlow(100, openflow.NewMatch().Set(openflow.FieldInPort, uint64(p+1)),
			openflow.Apply(openflow.Output(uint32(p))))
	}
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))

	return &UseCase{
		Name:     "xconnect",
		Pipeline: pl,
		Trace: func(activeFlows int) *pktgen.Trace {
			if activeFlows < 1 {
				activeFlows = 1
			}
			flows := make([]pktgen.Flow, 0, activeFlows)
			for f := 0; f < activeFlows; f++ {
				flows = append(flows, pktgen.Flow{
					InPort: uint32(1 + f%numPorts),
					SrcMAC: pkt.MACFromUint64(0x0c0000000000 + uint64(f)),
					DstMAC: pkt.MACFromUint64(0x0c0000010000 + uint64(f)),
					L2Only: true,
				})
			}
			return pktgen.NewTrace(flows, int64(activeFlows)+7)
		},
	}
}
