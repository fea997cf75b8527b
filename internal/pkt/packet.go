// Package pkt implements the packet model and the incremental protocol
// parsers (the paper's "packet parser templates", §3.1).
//
// A Packet carries raw wire bytes plus receive metadata.  A Headers value is
// the parsed view used for matching: it records which protocol headers are
// present (a protocol bitmask, mirroring the r15 register of the paper's
// parser templates), the byte offsets of the L2/L3/L4 headers (r12–r14), and
// the decoded header fields the OpenFlow match fields refer to.  Parsing is
// incremental and layer-bounded: ParseL2 only touches the Ethernet/VLAN
// header, ParseL3 composes ParseL2, and ParseL4 composes both, so a compiled
// datapath that matches only on L2 fields never pays for L3/L4 parsing.
//
// All parsing is zero-allocation: Headers is a value type that callers are
// expected to reuse across packets.
package pkt

import "fmt"

// Proto is a protocol-presence bit, combined into a bitmask in Headers.Proto.
type Proto uint32

// Protocol-presence bits.  These mirror the protocol bitmask the paper's
// parser templates maintain in register r15.
const (
	ProtoEthernet Proto = 1 << iota
	ProtoVLAN
	ProtoARP
	ProtoIPv4
	ProtoIPv6
	ProtoTCP
	ProtoUDP
	ProtoICMP
	ProtoSCTP
)

// String returns a human-readable protocol-set representation.
func (p Proto) String() string {
	names := []struct {
		bit  Proto
		name string
	}{
		{ProtoEthernet, "eth"}, {ProtoVLAN, "vlan"}, {ProtoARP, "arp"},
		{ProtoIPv4, "ipv4"}, {ProtoIPv6, "ipv6"}, {ProtoTCP, "tcp"},
		{ProtoUDP, "udp"}, {ProtoICMP, "icmp"}, {ProtoSCTP, "sctp"},
	}
	out := ""
	for _, n := range names {
		if p&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// EtherType values understood by the parsers.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeVLAN uint16 = 0x8100
	EtherTypeIPv6 uint16 = 0x86dd
)

// IP protocol numbers understood by the parsers.
const (
	IPProtoICMP uint8 = 1
	IPProtoTCP  uint8 = 6
	IPProtoUDP  uint8 = 17
	IPProtoSCTP uint8 = 132
)

// EthernetHeaderLen is the length of an untagged Ethernet header.
const EthernetHeaderLen = 14

// VLANTagLen is the length of a single 802.1Q tag.
const VLANTagLen = 4

// MinPacketLen is the minimum Ethernet frame size (without FCS) used by the
// traffic generators; it matches the 64-byte minimum-size packets of the
// paper's measurements (60 bytes on the wire side handled by the generator).
const MinPacketLen = 60

// Packet is a raw packet plus receive-side metadata.  The Data slice aliases
// the buffer the packet was received into; the dataplane substrate owns the
// buffer lifecycle.
type Packet struct {
	// Data holds the wire bytes starting at the Ethernet header.
	Data []byte
	// InPort is the OpenFlow ingress port the packet was received on.
	InPort uint32
	// Metadata is the OpenFlow metadata register carried between tables.
	Metadata uint64
	// Headers is the parsed view.  It is only valid up to the layer that
	// has been parsed (see Headers.Parsed).
	Headers Headers

	// rss caches the symmetric flow hash of Data (RSSHash) after the first
	// FlowHash call, so every consumer of one packet (RSS queue steering,
	// the tracer) shares a single hash computation.  Producers that already
	// hashed the frame (traffic generators, NIC-side steering) prime it with
	// SetFlowHash.
	rss   uint32
	rssOK bool
}

// Reset clears the packet for reuse, keeping the Data slice capacity.
func (p *Packet) Reset() {
	p.Data = p.Data[:0]
	p.InPort = 0
	p.Metadata = 0
	p.Headers = Headers{}
	p.rss = 0
	p.rssOK = false
}

// FlowHash returns the symmetric flow hash of the packet's frame (RSSHash),
// computing it on first use and caching it in the packet.  The hash is what a
// multi-queue NIC computes for RSS steering.  (The verdict cache does not
// probe with it: its key is masked to the bits the pipeline reads, which the
// five-tuple hash does not respect — core/flowcache.go.)
func (p *Packet) FlowHash() uint32 {
	if !p.rssOK {
		p.rss = RSSHash(p.Data)
		p.rssOK = true
	}
	return p.rss
}

// SetFlowHash primes the cached flow hash with a value the producer already
// computed (it must equal RSSHash of the packet's frame).
func (p *Packet) SetFlowHash(h uint32) {
	p.rss = h
	p.rssOK = true
}

// Layer identifies how deep a Headers value has been parsed.
type Layer uint8

// Parsing depths.
const (
	LayerNone Layer = iota
	LayerL2
	LayerL3
	LayerL4
)

// String returns the conventional name of the layer.
func (l Layer) String() string {
	switch l {
	case LayerNone:
		return "none"
	case LayerL2:
		return "L2"
	case LayerL3:
		return "L3"
	case LayerL4:
		return "L4"
	default:
		return fmt.Sprintf("Layer(%d)", uint8(l))
	}
}

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// String formats the address in the usual colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Uint64 returns the address as a 48-bit integer, useful as a hash key.
func (m MAC) Uint64() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// MACFromUint64 builds a MAC address from the low 48 bits of v.
func MACFromUint64(v uint64) MAC {
	return MAC{byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// IPv4 is an IPv4 address in host byte order (as a uint32) for fast matching.
type IPv4 uint32

// String formats the address in dotted-quad form.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// IPv4FromBytes builds an address from 4 wire-order bytes.
func IPv4FromBytes(b []byte) IPv4 {
	_ = b[3]
	return IPv4(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}

// IPv4FromOctets builds an address from its four dotted-quad octets.
func IPv4FromOctets(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Headers is the parsed view of a packet.  Fields beyond the parsed layer are
// zero and must not be relied upon; use Proto to test protocol presence.
type Headers struct {
	// Proto is the protocol-presence bitmask (the paper's r15).
	Proto Proto
	// Parsed records how deep the packet has been parsed.
	Parsed Layer

	// L2Off, L3Off, L4Off are byte offsets of the layer headers within
	// Packet.Data (the paper's r12, r13, r14).  An offset of -1 means the
	// layer is absent.
	L2Off, L3Off, L4Off int

	// Ethernet fields.
	EthDst  MAC
	EthSrc  MAC
	EthType uint16
	// VLANID is the 12-bit VLAN identifier when ProtoVLAN is present.
	VLANID uint16
	// VLANPCP is the 3-bit priority code point when ProtoVLAN is present.
	VLANPCP uint8

	// IPv4 fields.
	IPSrc   IPv4
	IPDst   IPv4
	IPProto uint8
	IPDSCP  uint8
	IPECN   uint8
	IPTTL   uint8

	// ARP fields (valid when ProtoARP is present).
	ARPOp  uint16
	ARPSPA IPv4
	ARPTPA IPv4

	// Transport fields.
	L4Src    uint16
	L4Dst    uint16
	TCPFlags uint16
	ICMPType uint8
	ICMPCode uint8
}

// Has reports whether every protocol bit in mask is present.
func (h *Headers) Has(mask Proto) bool { return h.Proto&mask == mask }
