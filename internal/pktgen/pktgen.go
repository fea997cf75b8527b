// Package pktgen is the software traffic generator standing in for the
// paper's NFPA/DPDK-pktgen load generator (§4.2): it synthesizes
// minimum-size frames for a configurable set of active flows and replays
// them deterministically.
//
// The central knob, mirroring the evaluation, is the size of the active flow
// set: the generator pre-builds one frame per flow and then emits packets by
// sweeping the flow set, which removes traffic locality exactly the way the
// paper's "number of active flows" axis does.  UseZipf replaces the uniform
// sweep with a Zipf-distributed popularity schedule — the realistic regime
// where a small fraction of flows carries most of the traffic, and the one a
// verdict cache is designed for.
package pktgen

import (
	"fmt"
	"math/rand"

	"eswitch/internal/pkt"
)

// ZipfGen is a seeded, deterministic Zipf(s) sampler over flow ranks
// [0, n): Next draws rank k with probability proportional to 1/(k+1)^s, so
// rank 0 is the most popular flow.  The same (s, n, seed) triple always
// yields the same sequence.
type ZipfGen struct {
	z *rand.Zipf
}

// Zipf returns a seeded Zipf(s) flow-popularity generator over n flows.
// s must be > 1 (the Zipf exponent; 1.1 is the conventional "realistic
// traffic" setting) and n >= 1.
func Zipf(s float64, n int, seed int64) (*ZipfGen, error) {
	if s <= 1 {
		return nil, fmt.Errorf("pktgen: Zipf exponent s must be > 1, got %v", s)
	}
	if n < 1 {
		return nil, fmt.Errorf("pktgen: Zipf needs at least one flow, got %d", n)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(n-1))
	if z == nil {
		return nil, fmt.Errorf("pktgen: invalid Zipf parameters s=%v n=%d", s, n)
	}
	return &ZipfGen{z: z}, nil
}

// Next returns the next sampled flow rank in [0, n).
func (g *ZipfGen) Next() int { return int(g.z.Uint64()) }

// Flow describes one synthetic flow; any zero field falls back to a default.
type Flow struct {
	InPort  uint32
	SrcMAC  pkt.MAC
	DstMAC  pkt.MAC
	VLAN    uint16
	SrcIP   pkt.IPv4
	DstIP   pkt.IPv4
	Proto   uint8 // pkt.IPProtoTCP (default) or pkt.IPProtoUDP
	SrcPort uint16
	DstPort uint16
	// L2Only builds a bare Ethernet frame without an IP header.
	L2Only bool
}

// Trace is a replayable set of pre-built frames, one per active flow.
type Trace struct {
	frames  [][]byte
	inPorts []uint32
	// hashes holds the symmetric RSS flow hash of each frame, computed once
	// at build time; Next primes each emitted packet with it so RSS steering
	// does not rehash the frame.
	hashes []uint32
	order  []int
	// perm is the trace's base emission permutation (round-robin or the
	// seeded shuffle), preserved so UseZipf can re-derive its rank→flow
	// mapping no matter how often the schedule is rebuilt.
	perm   []int
	cursor int
}

// NewTrace pre-builds the frames for the given flows.  When shuffleSeed is
// non-zero the emission order is a deterministic pseudo-random permutation of
// the flow set (repeated), otherwise flows are emitted round-robin.
func NewTrace(flows []Flow, shuffleSeed int64) *Trace {
	t := &Trace{}
	b := pkt.NewBuilder(128)
	for _, f := range flows {
		var frame []byte
		eth := pkt.EthernetOpts{Dst: f.DstMAC, Src: f.SrcMAC, VLAN: f.VLAN}
		switch {
		case f.L2Only:
			eth.EtherType = 0x0800
			frame = pkt.Clone(b.EthernetFrame(eth, nil))
		case f.Proto == pkt.IPProtoUDP:
			frame = pkt.Clone(b.UDPPacket(eth, pkt.IPv4Opts{Src: f.SrcIP, Dst: f.DstIP}, pkt.L4Opts{Src: f.SrcPort, Dst: f.DstPort}))
		default:
			frame = pkt.Clone(b.TCPPacket(eth, pkt.IPv4Opts{Src: f.SrcIP, Dst: f.DstIP}, pkt.L4Opts{Src: f.SrcPort, Dst: f.DstPort}))
		}
		t.frames = append(t.frames, frame)
		t.hashes = append(t.hashes, pkt.RSSHash(frame))
		inPort := f.InPort
		if inPort == 0 {
			inPort = 1
		}
		t.inPorts = append(t.inPorts, inPort)
	}
	t.order = make([]int, len(flows))
	for i := range t.order {
		t.order[i] = i
	}
	if shuffleSeed != 0 {
		rng := rand.New(rand.NewSource(shuffleSeed))
		rng.Shuffle(len(t.order), func(i, j int) { t.order[i], t.order[j] = t.order[j], t.order[i] })
	}
	t.perm = append([]int(nil), t.order...)
	return t
}

// NumFlows returns the number of distinct flows in the trace.
func (t *Trace) NumFlows() int { return len(t.frames) }

// UseZipf replaces the trace's uniform round-robin sweep with a
// Zipf(s)-distributed flow-popularity schedule: flow ranks are drawn from a
// seeded Zipf sampler and mapped through the trace's (possibly shuffled)
// emission permutation, so popularity is decorrelated from flow construction
// order.  The schedule is pre-sampled once — several passes over the flow set
// — and replayed cyclically, which keeps Next as cheap as the uniform sweep
// and makes the emitted sequence a pure function of (s, seed).
func (t *Trace) UseZipf(s float64, seed int64) error {
	g, err := Zipf(s, len(t.frames), seed)
	if err != nil {
		return err
	}
	// rankToFlow is the trace's base emission permutation: rank 0 (the most
	// popular) maps to whatever flow the shuffle put first.  It is taken
	// from the preserved permutation, not the current schedule, so UseZipf
	// may be called repeatedly (different s or seed) on one trace.
	rankToFlow := t.perm
	n := 4 * len(t.frames)
	if n < 65536 {
		n = 65536 // enough samples for stable tail statistics on tiny flow sets
	}
	if n > 1<<22 {
		n = 1 << 22
	}
	order := make([]int, n)
	for i := range order {
		order[i] = rankToFlow[g.Next()]
	}
	t.order = order
	t.cursor = 0
	return nil
}

// Next fills p with the next packet of the trace (sweeping the active flow
// set in the configured order — round-robin, or the Zipf schedule after
// UseZipf).  The packet's Data aliases the trace's pre-built frame; the
// caller must not modify it.
func (t *Trace) Next(p *pkt.Packet) {
	idx := t.order[t.cursor]
	t.cursor++
	if t.cursor == len(t.order) {
		t.cursor = 0
	}
	p.Data = t.frames[idx]
	p.InPort = t.inPorts[idx]
	p.Metadata = 0
	p.Headers = pkt.Headers{}
	p.SetFlowHash(t.hashes[idx])
}

// Reset rewinds the trace to its first packet.
func (t *Trace) Reset() { t.cursor = 0 }

// Frame returns the idx-th pre-built frame and its ingress port.
func (t *Trace) Frame(idx int) ([]byte, uint32) {
	return t.frames[idx%len(t.frames)], t.inPorts[idx%len(t.frames)]
}

// SweepTrace is the adversarial counterpart of Trace: a port-scan /
// address-sweep generator.  Every emitted packet is one template flow's frame
// with the IPv4 source address and L4 source port stepped through a
// configurable window, so the generator produces width*ports distinct
// microflows — each seen essentially once — while the fields a typical
// forwarding pipeline examines (destination address, destination port) stay
// fixed.  This is the worst case for a cache keyed on the exact five-tuple
// (every packet is a miss) and the best case for one keyed only on the bits
// the pipeline reads — the baseline's masked-match megaflow level, the
// compiled datapath's static key — where every packet falls under one entry:
// the scan traffic that drove OVS from a microflow-only to a megaflow cache.
//
// Frames are mutated in a ring of private slot buffers, so packets of the
// same burst never alias each other's Data.  The IPv4 header checksum is not
// recomputed after the source-address patch; the datapaths classify on
// parsed fields and never verify it.
type SweepTrace struct {
	slots    [][]byte
	inPort   uint32
	ipOff    int
	portOff  int
	baseIP   uint32
	basePort uint32
	width    uint32
	ports    uint32
	cursor   uint32
	slot     int
}

// NewSweepTrace builds a sweep generator over the template flow f, stepping
// the source address through width consecutive addresses and the source port
// through ports consecutive ports (minimums of 1; the defaults width=1<<20,
// ports=1 when zero emulate a /12 address scan).  slots is the size of the
// private frame ring and must cover at least one RX burst (default 256).
// The template must be an IPv4 flow (L2Only sweeps have no fields to step).
func NewSweepTrace(f Flow, width, ports, slots int) (*SweepTrace, error) {
	if f.L2Only {
		return nil, fmt.Errorf("pktgen: sweep trace needs an IPv4 template flow")
	}
	if width <= 0 {
		width = 1 << 20
	}
	if ports <= 0 {
		ports = 1
	}
	if slots <= 0 {
		slots = 256
	}
	base := NewTrace([]Flow{f}, 0)
	frame, inPort := base.Frame(0)
	// Locate the fields to step: Ethernet (plus one optional 802.1Q tag),
	// then the IPv4 source address and the first L4 port field (source port
	// for both TCP and UDP).
	l3 := 14
	if len(frame) >= 14 && frame[12] == 0x81 && frame[13] == 0x00 {
		l3 = 18
	}
	if len(frame) < l3+20 {
		return nil, fmt.Errorf("pktgen: sweep template frame too short for IPv4")
	}
	ihl := int(frame[l3]&0x0f) * 4
	t := &SweepTrace{
		inPort:   inPort,
		ipOff:    l3 + 12,
		portOff:  l3 + ihl,
		baseIP:   uint32(f.SrcIP),
		basePort: uint32(f.SrcPort),
		width:    uint32(width),
		ports:    uint32(ports),
	}
	if len(frame) < t.portOff+4 {
		return nil, fmt.Errorf("pktgen: sweep template frame too short for L4 ports")
	}
	t.slots = make([][]byte, slots)
	for i := range t.slots {
		t.slots[i] = pkt.Clone(frame)
	}
	return t, nil
}

// NumFlows returns the number of distinct microflows the sweep emits before
// wrapping.
func (t *SweepTrace) NumFlows() int { return int(t.width) * int(t.ports) }

// Next fills p with the next packet of the sweep.  The packet's Data is a
// private slot buffer valid until slots more packets have been emitted.
func (t *SweepTrace) Next(p *pkt.Packet) {
	frame := t.slots[t.slot]
	t.slot++
	if t.slot == len(t.slots) {
		t.slot = 0
	}
	step := t.cursor
	t.cursor++
	ip := t.baseIP + step%t.width
	port := uint16(t.basePort + (step/t.width)%t.ports)
	frame[t.ipOff] = byte(ip >> 24)
	frame[t.ipOff+1] = byte(ip >> 16)
	frame[t.ipOff+2] = byte(ip >> 8)
	frame[t.ipOff+3] = byte(ip)
	frame[t.portOff] = byte(port >> 8)
	frame[t.portOff+1] = byte(port)
	p.Data = frame
	p.InPort = t.inPort
	p.Metadata = 0
	p.Headers = pkt.Headers{}
	p.SetFlowHash(pkt.RSSHash(frame))
}
