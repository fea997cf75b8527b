package pkt

import "encoding/binary"

// be16 and be32 read big-endian integers; they are tiny wrappers kept for
// readability in the parsers.
func be16(b []byte) uint16 { return binary.BigEndian.Uint16(b) }
func be32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

// ParseL2 parses the Ethernet (and single 802.1Q VLAN tag, if present) header
// into p.Headers.  It is the paper's L2 parser template.  It reports whether
// the packet is long enough to contain a valid Ethernet header.
func ParseL2(p *Packet) bool {
	h := &p.Headers
	if h.Parsed >= LayerL2 {
		return true
	}
	d := p.Data
	if len(d) < EthernetHeaderLen {
		h.Parsed = LayerNone
		h.L2Off, h.L3Off, h.L4Off = -1, -1, -1
		return false
	}
	h.L2Off = 0
	copy(h.EthDst[:], d[0:6])
	copy(h.EthSrc[:], d[6:12])
	h.Proto |= ProtoEthernet
	etherType := be16(d[12:14])
	l3 := EthernetHeaderLen
	if etherType == EtherTypeVLAN {
		if len(d) < EthernetHeaderLen+VLANTagLen {
			h.Parsed = LayerL2
			h.EthType = etherType
			h.L3Off, h.L4Off = -1, -1
			return true
		}
		tci := be16(d[14:16])
		h.VLANID = tci & 0x0fff
		h.VLANPCP = uint8(tci >> 13)
		h.Proto |= ProtoVLAN
		etherType = be16(d[16:18])
		l3 = EthernetHeaderLen + VLANTagLen
	}
	h.EthType = etherType
	h.L3Off = l3
	h.L4Off = -1
	h.Parsed = LayerL2
	return true
}

// parseL3 parses the network-layer header (IPv4 or ARP), composing ParseL2 if
// the L2 header has not been parsed yet.  It is the paper's L3 parser
// template.  It reports whether a network-layer header was found and parsed.
func parseL3(p *Packet) bool {
	h := &p.Headers
	if h.Parsed >= LayerL3 {
		return h.Proto&(ProtoIPv4|ProtoARP) != 0
	}
	if h.Parsed < LayerL2 && !ParseL2(p) {
		return false
	}
	if h.L3Off < 0 {
		h.Parsed = LayerL3
		return false
	}
	d := p.Data
	switch h.EthType {
	case EtherTypeIPv4:
		off := h.L3Off
		if len(d) < off+20 {
			h.Parsed = LayerL3
			return false
		}
		ihl := int(d[off]&0x0f) * 4
		if ihl < 20 || len(d) < off+ihl {
			h.Parsed = LayerL3
			return false
		}
		h.Proto |= ProtoIPv4
		tos := d[off+1]
		h.IPDSCP = tos >> 2
		h.IPECN = tos & 0x3
		h.IPTTL = d[off+8]
		h.IPProto = d[off+9]
		h.IPSrc = IPv4FromBytes(d[off+12 : off+16])
		h.IPDst = IPv4FromBytes(d[off+16 : off+20])
		h.L4Off = off + ihl
		h.Parsed = LayerL3
		return true
	case EtherTypeARP:
		off := h.L3Off
		if len(d) < off+28 {
			h.Parsed = LayerL3
			return false
		}
		h.Proto |= ProtoARP
		h.ARPOp = be16(d[off+6 : off+8])
		h.ARPSPA = IPv4FromBytes(d[off+14 : off+18])
		h.ARPTPA = IPv4FromBytes(d[off+24 : off+28])
		h.Parsed = LayerL3
		return true
	default:
		h.Parsed = LayerL3
		return false
	}
}

// ParseL4 parses the transport-layer header (TCP, UDP, SCTP or ICMP),
// composing parseL3 (and thus ParseL2) as needed.  It is the paper's L4
// parser template.  It reports whether a transport header was found.
func ParseL4(p *Packet) bool {
	h := &p.Headers
	if h.Parsed >= LayerL4 {
		return h.Proto&(ProtoTCP|ProtoUDP|ProtoICMP|ProtoSCTP) != 0
	}
	if h.Parsed < LayerL3 && !parseL3(p) {
		h.Parsed = LayerL4
		return false
	}
	if h.Proto&ProtoIPv4 == 0 || h.L4Off < 0 {
		h.Parsed = LayerL4
		return false
	}
	d := p.Data
	off := h.L4Off
	switch h.IPProto {
	case IPProtoTCP:
		if len(d) < off+14 {
			h.Parsed = LayerL4
			return false
		}
		h.Proto |= ProtoTCP
		h.L4Src = be16(d[off : off+2])
		h.L4Dst = be16(d[off+2 : off+4])
		h.TCPFlags = be16(d[off+12:off+14]) & 0x0fff
		h.Parsed = LayerL4
		return true
	case IPProtoUDP:
		if len(d) < off+8 {
			h.Parsed = LayerL4
			return false
		}
		h.Proto |= ProtoUDP
		h.L4Src = be16(d[off : off+2])
		h.L4Dst = be16(d[off+2 : off+4])
		h.Parsed = LayerL4
		return true
	case IPProtoSCTP:
		if len(d) < off+8 {
			h.Parsed = LayerL4
			return false
		}
		h.Proto |= ProtoSCTP
		h.L4Src = be16(d[off : off+2])
		h.L4Dst = be16(d[off+2 : off+4])
		h.Parsed = LayerL4
		return true
	case IPProtoICMP:
		if len(d) < off+4 {
			h.Parsed = LayerL4
			return false
		}
		h.Proto |= ProtoICMP
		h.ICMPType = d[off]
		h.ICMPCode = d[off+1]
		h.Parsed = LayerL4
		return true
	default:
		h.Parsed = LayerL4
		return false
	}
}

// ParseTo parses the packet up to the requested layer.  It is the entry point
// the compiled datapaths use: the ESWITCH compiler selects the shallowest
// layer the pipeline's match fields require and calls ParseTo once per packet.
func ParseTo(p *Packet, layer Layer) {
	switch layer {
	case LayerL2:
		ParseL2(p)
	case LayerL3:
		parseL3(p)
	case LayerL4:
		ParseL4(p)
	}
}

// ParseToBurst parses every packet of a burst up to the requested layer in
// one pass.  The burst fast path uses it so the layer dispatch is decided
// once per burst and the parser's code and branch-predictor state stay hot
// across all packets.
func ParseToBurst(ps []*Packet, layer Layer) {
	switch layer {
	case LayerL2:
		for _, p := range ps {
			ParseL2(p)
		}
	case LayerL3:
		for _, p := range ps {
			parseL3(p)
		}
	case LayerL4:
		for _, p := range ps {
			ParseL4(p)
		}
	}
}
