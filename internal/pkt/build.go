package pkt

import "encoding/binary"

// Builder assembles test and generator packets.  It is deliberately simple:
// the traffic generators construct millions of near-identical minimum-size
// frames, so the builder writes directly into a caller-supplied buffer and
// never allocates after the first call.
type Builder struct {
	buf []byte
}

// NewBuilder returns a builder with an internal buffer of the given capacity.
func NewBuilder(capacity int) *Builder {
	if capacity < MinPacketLen {
		capacity = MinPacketLen
	}
	return &Builder{buf: make([]byte, 0, capacity)}
}

// EthernetOpts describes the L2 header of a frame being built.
type EthernetOpts struct {
	Dst, Src MAC
	// VLAN, when non-zero (or when VLANPresent is set), inserts an 802.1Q
	// tag with this VLAN ID.
	VLAN        uint16
	VLANPresent bool
	PCP         uint8
	EtherType   uint16
}

// IPv4Opts describes the L3 header of a frame being built.
type IPv4Opts struct {
	Src, Dst IPv4
	Proto    uint8
	TTL      uint8
	DSCP     uint8
}

// L4Opts describes the transport header of a frame being built.
type L4Opts struct {
	Src, Dst uint16
	TCPFlags uint16
}

// EthernetFrame builds a bare Ethernet frame with the given payload, padding
// the result to the minimum frame size.
func (b *Builder) EthernetFrame(eth EthernetOpts, payload []byte) []byte {
	b.buf = b.buf[:0]
	b.buf = append(b.buf, eth.Dst[:]...)
	b.buf = append(b.buf, eth.Src[:]...)
	if eth.VLANPresent || eth.VLAN != 0 {
		b.buf = append(b.buf, 0x81, 0x00)
		tci := (uint16(eth.PCP) << 13) | (eth.VLAN & 0x0fff)
		b.buf = binary.BigEndian.AppendUint16(b.buf, tci)
	}
	b.buf = binary.BigEndian.AppendUint16(b.buf, eth.EtherType)
	b.buf = append(b.buf, payload...)
	b.pad()
	return b.buf
}

// ipv4Packet builds an Ethernet+IPv4 frame carrying the given transport
// payload bytes (which must already include the transport header when one is
// desired; see TCPPacket and UDPPacket for the common cases).
func (b *Builder) ipv4Packet(eth EthernetOpts, ip IPv4Opts, l4 []byte) []byte {
	eth.EtherType = EtherTypeIPv4
	hdr := make([]byte, 0, 20+len(l4))
	hdr = b.ipv4Header(hdr, ip, len(l4))
	hdr = append(hdr, l4...)
	return b.EthernetFrame(eth, hdr)
}

func (b *Builder) ipv4Header(dst []byte, ip IPv4Opts, payloadLen int) []byte {
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	totalLen := 20 + payloadLen
	dst = append(dst, 0x45, ip.DSCP<<2)
	dst = binary.BigEndian.AppendUint16(dst, uint16(totalLen))
	dst = append(dst, 0, 0, 0, 0) // identification, flags, fragment offset
	dst = append(dst, ttl, ip.Proto, 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(ip.Src))
	dst = binary.BigEndian.AppendUint32(dst, uint32(ip.Dst))
	// Compute the header checksum over the 20 bytes just written.
	h := dst[len(dst)-20:]
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(h[i : i+2]))
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	binary.BigEndian.PutUint16(h[10:12], ^uint16(sum))
	return dst
}

// TCPPacket builds a minimum-size Ethernet+IPv4+TCP frame.
func (b *Builder) TCPPacket(eth EthernetOpts, ip IPv4Opts, l4 L4Opts) []byte {
	ip.Proto = IPProtoTCP
	tcp := make([]byte, 20)
	binary.BigEndian.PutUint16(tcp[0:2], l4.Src)
	binary.BigEndian.PutUint16(tcp[2:4], l4.Dst)
	flags := l4.TCPFlags
	if flags == 0 {
		flags = 0x010 // ACK
	}
	tcp[12] = 5 << 4 // data offset
	tcp[13] = byte(flags & 0xff)
	return b.ipv4Packet(eth, ip, tcp)
}

// UDPPacket builds a minimum-size Ethernet+IPv4+UDP frame.
func (b *Builder) UDPPacket(eth EthernetOpts, ip IPv4Opts, l4 L4Opts) []byte {
	ip.Proto = IPProtoUDP
	udp := make([]byte, 8)
	binary.BigEndian.PutUint16(udp[0:2], l4.Src)
	binary.BigEndian.PutUint16(udp[2:4], l4.Dst)
	binary.BigEndian.PutUint16(udp[4:6], 8)
	return b.ipv4Packet(eth, ip, l4span(udp))
}

// ARPPacket builds an ARP request/reply frame.
func (b *Builder) ARPPacket(eth EthernetOpts, op uint16, spa, tpa IPv4) []byte {
	eth.EtherType = EtherTypeARP
	arp := make([]byte, 28)
	binary.BigEndian.PutUint16(arp[0:2], 1)      // hardware type: Ethernet
	binary.BigEndian.PutUint16(arp[2:4], 0x0800) // protocol type: IPv4
	arp[4], arp[5] = 6, 4
	binary.BigEndian.PutUint16(arp[6:8], op)
	copy(arp[8:14], eth.Src[:])
	binary.BigEndian.PutUint32(arp[14:18], uint32(spa))
	copy(arp[18:24], eth.Dst[:])
	binary.BigEndian.PutUint32(arp[24:28], uint32(tpa))
	return b.EthernetFrame(eth, arp)
}

func l4span(b []byte) []byte { return b }

func (b *Builder) pad() {
	for len(b.buf) < MinPacketLen {
		b.buf = append(b.buf, 0)
	}
}

// Clone returns a copy of the frame in freshly allocated memory; generators
// use it when a frame must outlive the builder.
func Clone(frame []byte) []byte {
	out := make([]byte, len(frame))
	copy(out, frame)
	return out
}
