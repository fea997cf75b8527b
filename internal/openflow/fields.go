// Package openflow implements the OpenFlow pipeline model the paper targets:
// OXM-style match fields with arbitrary masks, prioritized flow entries,
// instructions (apply/write actions, goto_table, write-metadata), multi-table
// pipelines and per-entry counters, plus a reference "direct datapath"
// interpreter that classifies packets right on the flow tables (§2.1).
//
// The interpreter is the semantic ground truth of the repository: both the
// ESWITCH compiler (internal/core) and the flow-caching baseline
// (internal/ovs) are tested for observational equivalence against it.
package openflow

import (
	"fmt"

	"eswitch/internal/pkt"
)

// Field identifies an OpenFlow match field (a subset of the OXM fields of
// OpenFlow 1.3/1.4 sufficient for the paper's use cases).
type Field uint8

// Match fields.
const (
	FieldInPort Field = iota
	FieldMetadata
	FieldEthDst
	FieldEthSrc
	FieldEthType
	FieldVLANID
	FieldVLANPCP
	FieldIPSrc
	FieldIPDst
	FieldIPProto
	FieldIPDSCP
	FieldIPECN
	FieldTCPSrc
	FieldTCPDst
	FieldUDPSrc
	FieldUDPDst
	FieldSCTPSrc
	FieldSCTPDst
	FieldICMPType
	FieldICMPCode
	FieldARPOp
	FieldARPSPA
	FieldARPTPA
	FieldTCPFlags
	// NumFields is the number of supported match fields.
	NumFields
)

var fieldNames = [NumFields]string{
	"in_port", "metadata", "eth_dst", "eth_src", "eth_type", "vlan_vid",
	"vlan_pcp", "ip_src", "ip_dst", "ip_proto", "ip_dscp", "ip_ecn",
	"tcp_src", "tcp_dst", "udp_src", "udp_dst", "sctp_src", "sctp_dst",
	"icmp_type", "icmp_code", "arp_op", "arp_spa", "arp_tpa", "tcp_flags",
}

// String returns the OpenFlow name of the field (e.g. "ip_dst").
func (f Field) String() string {
	if f < NumFields {
		return fieldNames[f]
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

var fieldWidths = [NumFields]uint8{
	32, 64, 48, 48, 16, 12,
	3, 32, 32, 8, 6, 2,
	16, 16, 16, 16, 16, 16,
	8, 8, 16, 32, 32, 12,
}

// Width returns the field width in bits.
func (f Field) Width() uint8 {
	if f < NumFields {
		return fieldWidths[f]
	}
	return 0
}

// FullMask returns the all-ones mask for the field.
func (f Field) FullMask() uint64 {
	w := f.Width()
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// Layer returns the shallowest parsing depth required to extract the field.
func (f Field) Layer() pkt.Layer {
	switch f {
	case FieldInPort, FieldMetadata:
		return pkt.LayerNone
	case FieldEthDst, FieldEthSrc, FieldEthType, FieldVLANID, FieldVLANPCP:
		return pkt.LayerL2
	case FieldIPSrc, FieldIPDst, FieldIPProto, FieldIPDSCP, FieldIPECN,
		FieldARPOp, FieldARPSPA, FieldARPTPA:
		return pkt.LayerL3
	default:
		return pkt.LayerL4
	}
}

// Prerequisite returns the protocol bits that must be present in a packet for
// the field to be meaningful (the OpenFlow match prerequisites).
func (f Field) Prerequisite() pkt.Proto {
	switch f {
	case FieldInPort, FieldMetadata:
		return 0
	case FieldEthDst, FieldEthSrc, FieldEthType:
		return pkt.ProtoEthernet
	case FieldVLANID, FieldVLANPCP:
		return pkt.ProtoVLAN
	case FieldIPSrc, FieldIPDst, FieldIPProto, FieldIPDSCP, FieldIPECN:
		return pkt.ProtoIPv4
	case FieldTCPSrc, FieldTCPDst, FieldTCPFlags:
		return pkt.ProtoTCP
	case FieldUDPSrc, FieldUDPDst:
		return pkt.ProtoUDP
	case FieldSCTPSrc, FieldSCTPDst:
		return pkt.ProtoSCTP
	case FieldICMPType, FieldICMPCode:
		return pkt.ProtoICMP
	case FieldARPOp, FieldARPSPA, FieldARPTPA:
		return pkt.ProtoARP
	default:
		return 0
	}
}

// Extract returns the value of field f in packet p.  The packet must already
// be parsed at least to f.Layer(); Extract does not parse.
func Extract(p *pkt.Packet, f Field) uint64 {
	h := &p.Headers
	switch f {
	case FieldInPort:
		return uint64(p.InPort)
	case FieldMetadata:
		return p.Metadata
	case FieldEthDst:
		return h.EthDst.Uint64()
	case FieldEthSrc:
		return h.EthSrc.Uint64()
	case FieldEthType:
		return uint64(h.EthType)
	case FieldVLANID:
		return uint64(h.VLANID)
	case FieldVLANPCP:
		return uint64(h.VLANPCP)
	case FieldIPSrc:
		return uint64(h.IPSrc)
	case FieldIPDst:
		return uint64(h.IPDst)
	case FieldIPProto:
		return uint64(h.IPProto)
	case FieldIPDSCP:
		return uint64(h.IPDSCP)
	case FieldIPECN:
		return uint64(h.IPECN)
	case FieldTCPSrc, FieldUDPSrc, FieldSCTPSrc:
		return uint64(h.L4Src)
	case FieldTCPDst, FieldUDPDst, FieldSCTPDst:
		return uint64(h.L4Dst)
	case FieldICMPType:
		return uint64(h.ICMPType)
	case FieldICMPCode:
		return uint64(h.ICMPCode)
	case FieldARPOp:
		return uint64(h.ARPOp)
	case FieldARPSPA:
		return uint64(h.ARPSPA)
	case FieldARPTPA:
		return uint64(h.ARPTPA)
	case FieldTCPFlags:
		return uint64(h.TCPFlags)
	default:
		return 0
	}
}

// FieldSet is a bitmap over match fields.
type FieldSet uint32

// Add returns the set with field f added.
func (s FieldSet) Add(f Field) FieldSet { return s | 1<<f }

// Has reports whether field f is in the set.
func (s FieldSet) Has(f Field) bool { return s&(1<<f) != 0 }

// Union returns the union of the two sets.
func (s FieldSet) Union(o FieldSet) FieldSet { return s | o }

// count returns the number of fields in the set.
func (s FieldSet) count() int {
	n := 0
	for f := Field(0); f < NumFields; f++ {
		if s.Has(f) {
			n++
		}
	}
	return n
}

// Fields returns the fields of the set in field order.
func (s FieldSet) Fields() []Field {
	out := make([]Field, 0, s.count())
	for f := Field(0); f < NumFields; f++ {
		if s.Has(f) {
			out = append(out, f)
		}
	}
	return out
}

// RequiredLayer returns the deepest parsing layer any field in the set needs.
func (s FieldSet) RequiredLayer() pkt.Layer {
	layer := pkt.LayerNone
	for f := Field(0); f < NumFields; f++ {
		if s.Has(f) && f.Layer() > layer {
			layer = f.Layer()
		}
	}
	return layer
}
