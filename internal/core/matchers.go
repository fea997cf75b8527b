package core

import (
	"math/bits"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// buildMatchers specializes the per-field matcher templates for one flow
// entry: each constrained field becomes a closure with the key and mask
// folded in as constants (the Go analogue of the paper's
// IP_DST_ADDR_MATCHER(ADDR,MASK) machine-code template with ADDR and MASK
// patched in).  The protocol-prerequisite check of the entry is returned
// separately so the direct-code template can emit it once per entry, exactly
// like the "check protocol bitmask" prologue in the paper's generated code.
func buildMatchers(m *openflow.Match) (proto pkt.Proto, matchers []matcherFunc) {
	proto = m.RequiredProto()
	for _, f := range m.Fields().Fields() {
		value, mask, _ := m.Get(f)
		matchers = append(matchers, buildFieldMatcher(f, value, mask))
	}
	return proto, matchers
}

// buildFieldMatcher specializes a single matcher template.  Common fields get
// dedicated closures that read the header field directly (mirroring the
// field-specific templates of §3.1); the remaining fields share a generic
// extract-xor-and matcher.
func buildFieldMatcher(f openflow.Field, value, mask uint64) matcherFunc {
	full := mask == f.FullMask()
	switch f {
	case openflow.FieldInPort:
		want := uint32(value)
		if full {
			return func(p *pkt.Packet) bool { return p.InPort == want }
		}
	case openflow.FieldEthDst:
		if full {
			want := pkt.MACFromUint64(value)
			return func(p *pkt.Packet) bool { return p.Headers.EthDst == want }
		}
	case openflow.FieldEthSrc:
		if full {
			want := pkt.MACFromUint64(value)
			return func(p *pkt.Packet) bool { return p.Headers.EthSrc == want }
		}
	case openflow.FieldEthType:
		want := uint16(value)
		if full {
			return func(p *pkt.Packet) bool { return p.Headers.EthType == want }
		}
	case openflow.FieldVLANID:
		want := uint16(value)
		if full {
			return func(p *pkt.Packet) bool { return p.Headers.VLANID == want }
		}
	case openflow.FieldIPSrc:
		want, m32 := uint32(value), uint32(mask)
		return func(p *pkt.Packet) bool { return (uint32(p.Headers.IPSrc)^want)&m32 == 0 }
	case openflow.FieldIPDst:
		want, m32 := uint32(value), uint32(mask)
		return func(p *pkt.Packet) bool { return (uint32(p.Headers.IPDst)^want)&m32 == 0 }
	case openflow.FieldIPProto:
		want := uint8(value)
		if full {
			return func(p *pkt.Packet) bool { return p.Headers.IPProto == want }
		}
	case openflow.FieldTCPDst, openflow.FieldUDPDst, openflow.FieldSCTPDst:
		want, m16 := uint16(value), uint16(mask)
		return func(p *pkt.Packet) bool { return (p.Headers.L4Dst^want)&m16 == 0 }
	case openflow.FieldTCPSrc, openflow.FieldUDPSrc, openflow.FieldSCTPSrc:
		want, m16 := uint16(value), uint16(mask)
		return func(p *pkt.Packet) bool { return (p.Headers.L4Src^want)&m16 == 0 }
	case openflow.FieldMetadata:
		return func(p *pkt.Packet) bool { return (p.Metadata^value)&mask == 0 }
	}
	// Generic matcher template for the remaining (or masked) fields.
	field := f
	return func(p *pkt.Packet) bool { return (openflow.Extract(p, field)^value)&mask == 0 }
}

// The key layout: every match field has a slot in one of layoutWords words,
// and every key is gathered from them, as in OVS's miniflow.  Words 0–4 are
// the verdict cache's key (flowKey.load), protocol presence and parse depth
// included; words 5–7 hold the rest: metadata, the narrow fields and the ARP
// addresses.  layoutWord0 to layoutWord4 compute the cache's words.
const layoutWords = 8

func layoutWord0(p *pkt.Packet) uint64 {
	return uint64(p.InPort) | uint64(p.Headers.EthType)<<32 | uint64(p.Headers.VLANID)<<48
}
func layoutWord1(p *pkt.Packet) uint64 {
	return p.Headers.EthDst.Uint64() | uint64(p.Headers.Proto&0xffff)<<keyProtoShift
}
func layoutWord2(p *pkt.Packet) uint64 {
	return p.Headers.EthSrc.Uint64() | uint64(p.Headers.IPProto)<<48 | uint64(p.Headers.Parsed)<<56
}
func layoutWord3(p *pkt.Packet) uint64 { return uint64(p.Headers.IPSrc)<<32 | uint64(p.Headers.IPDst) }
func layoutWord4(p *pkt.Packet) uint64 { return uint64(p.Headers.L4Src) | uint64(p.Headers.L4Dst)<<16 }

// keySlot places one match field in the key layout.
type keySlot struct {
	name        string // as rendered; empty for an alias of an earlier slot
	word        uint8
	shift, bits uint8
}

// keyLayout is the layout by match field (TestKeyLayout holds it to the word
// expressions).  The L4 ports have one slot per direction whatever the
// transport, hence their names.
var keyLayout = [openflow.NumFields]keySlot{
	openflow.FieldInPort:   {"in_port", 0, 0, 32},
	openflow.FieldEthType:  {"eth_type", 0, 32, 16},
	openflow.FieldVLANID:   {"vlan_vid", 0, 48, 12},
	openflow.FieldEthDst:   {"eth_dst", 1, 0, 48},
	openflow.FieldEthSrc:   {"eth_src", 2, 0, 48},
	openflow.FieldIPProto:  {"ip_proto", 2, 48, 8},
	openflow.FieldIPSrc:    {"ip_src", 3, 32, 32},
	openflow.FieldIPDst:    {"ip_dst", 3, 0, 32},
	openflow.FieldTCPSrc:   {"l4_src", 4, 0, 16},
	openflow.FieldTCPDst:   {"l4_dst", 4, 16, 16},
	openflow.FieldUDPSrc:   {"", 4, 0, 16},
	openflow.FieldUDPDst:   {"", 4, 16, 16},
	openflow.FieldSCTPSrc:  {"", 4, 0, 16},
	openflow.FieldSCTPDst:  {"", 4, 16, 16},
	openflow.FieldMetadata: {"metadata", 5, 0, 64},
	openflow.FieldVLANPCP:  {"vlan_pcp", 6, 0, 3},
	openflow.FieldIPDSCP:   {"ip_dscp", 6, 3, 6},
	openflow.FieldIPECN:    {"ip_ecn", 6, 9, 2},
	openflow.FieldTCPFlags: {"tcp_flags", 6, 11, 12},
	openflow.FieldICMPType: {"icmp_type", 6, 23, 8},
	openflow.FieldICMPCode: {"icmp_code", 6, 31, 8},
	openflow.FieldARPOp:    {"arp_op", 6, 39, 16},
	openflow.FieldARPSPA:   {"arp_spa", 7, 32, 32},
	openflow.FieldARPTPA:   {"arp_tpa", 7, 0, 32},
}

// keyBits ORs a value/mask constraint on field f into layout-shaped value
// and mask words.  A field whose word lies past the end of kv (the cache key
// stops at word 4) is left unconstrained, which only widens a scope.
func keyBits(f openflow.Field, value, mask uint64, kv, km []uint64) {
	if l := &keyLayout[f]; int(l.word) < len(kv) {
		kv[l.word] |= value << l.shift
		km[l.word] |= mask << l.shift
	}
}

// gatherWord moves one layout word into a compound-hash key: the word under
// the stage's global masks, rotated left by rot into key word dst.
type gatherWord struct {
	mask          uint64
	src, dst, rot uint8
}

// keyGather is the compile-time half of the compound-hash template: the
// stage's fields, global masks and protocol prerequisite, and the layout
// words the masks touch, each with its place in the four-word key.  Words
// share a key word only when a stage touches more than four; their rotated
// masks are disjoint, so the key stays injective in the masked field values.
type keyGather struct {
	set    openflow.FieldSet
	proto  pkt.Proto
	fields []openflow.Field // in field order
	masks  []uint64         // by field
	words  []gatherWord
}

// newKeyGather plans the gather of a stage whose entries match m's fields
// under m's masks.  It fails when two fields read the same bits (the L4 port
// aliases) or the touched words do not fit four key words.
func newKeyGather(m *openflow.Match) (keyGather, bool) {
	g := keyGather{set: m.Fields(), proto: m.RequiredProto(), fields: m.Fields().Fields()}
	var unused, lm [layoutWords]uint64
	for _, f := range g.fields {
		_, mask, _ := m.Get(f)
		if l := keyLayout[f]; lm[l.word]&(mask<<l.shift) != 0 {
			return keyGather{}, false
		}
		g.masks = append(g.masks, mask)
		keyBits(f, 0, mask, unused[:], lm[:])
	}
	for w, mask := range lm {
		if mask != 0 {
			g.words = append(g.words, gatherWord{mask: mask, src: uint8(w)})
		}
	}
	var occ [4]uint64
	n := uint8(0) // key words in use
	for i := range g.words {
		w := &g.words[i]
		w.dst = n
		// Past four words, first fit: the first key word and rotation free.
		for k := uint8(0); len(g.words) > 4 && k < n && w.dst == n; k++ {
			for r := 0; r < 64 && w.dst == n; r++ {
				if bits.RotateLeft64(w.mask, r)&occ[k] == 0 {
					w.dst, w.rot = k, uint8(r)
				}
			}
		}
		if w.dst == n {
			if n++; n > 4 {
				return keyGather{}, false
			}
		}
		occ[w.dst] |= bits.RotateLeft64(w.mask, int(w.rot))
	}
	return g, true
}

// compatible reports whether m matches exactly the stage's fields under its
// global masks.
func (g *keyGather) compatible(m *openflow.Match) bool {
	if m.Fields() != g.set {
		return false
	}
	for i, f := range g.fields {
		if _, mask, _ := m.Get(f); mask != g.masks[i] {
			return false
		}
	}
	return true
}

// width is the number of words the stage's key holds, as the cuckoo table
// stores it: one, or four for a stage that touches more layout words.  A
// one-word key is layout word words[0] under its mask.
func (g *keyGather) width() int {
	if len(g.words) <= 1 {
		return 1
	}
	return 4
}

// layoutWordRare computes layout word 5, 6 or 7 of a parsed packet.
func layoutWordRare(p *pkt.Packet, w uint8) uint64 {
	h := &p.Headers
	switch w {
	case 5:
		return p.Metadata
	case 6:
		return uint64(h.VLANPCP&7) | uint64(h.IPDSCP&0x3f)<<3 | uint64(h.IPECN&3)<<9 | uint64(h.TCPFlags&0xfff)<<11 |
			uint64(h.ICMPType)<<23 | uint64(h.ICMPCode)<<31 | uint64(h.ARPOp)<<39
	}
	return uint64(h.ARPSPA)<<32 | uint64(h.ARPTPA)
}

// stage gathers the keys of a burst's staged packets, ps[gidx[j]] into
// keys[j], one layout word at a time: the dispatch on the word is made once
// per burst, and each word's loop reads its header fields straight through.
// Only the key words the stage uses are read back.
func (g *keyGather) stage(ps []*pkt.Packet, gidx []int32, keys [][4]uint64) {
	clear(keys)
	for _, w := range g.words {
		d, mask, rot := w.dst&3, w.mask, int(w.rot)
		switch w.src {
		case 0:
			for j, i := range gidx {
				keys[j][d] |= bits.RotateLeft64(layoutWord0(ps[i])&mask, rot)
			}
		case 1:
			for j, i := range gidx {
				keys[j][d] |= bits.RotateLeft64(layoutWord1(ps[i])&mask, rot)
			}
		case 2:
			for j, i := range gidx {
				keys[j][d] |= bits.RotateLeft64(layoutWord2(ps[i])&mask, rot)
			}
		case 3:
			for j, i := range gidx {
				keys[j][d] |= bits.RotateLeft64(layoutWord3(ps[i])&mask, rot)
			}
		case 4:
			for j, i := range gidx {
				keys[j][d] |= bits.RotateLeft64(layoutWord4(ps[i])&mask, rot)
			}
		default:
			for j, i := range gidx {
				keys[j][d] |= bits.RotateLeft64(layoutWordRare(ps[i], w.src)&mask, rot)
			}
		}
	}
}

// packet gathers a parsed packet's key, computing only the touched words: the
// runtime half of the compound-hash template, as a one-packet stage.
func (g *keyGather) packet(p *pkt.Packet) hashKey {
	var k [1][4]uint64
	g.stage([]*pkt.Packet{p}, []int32{0}, k[:])
	return hashKey{W0: k[0][0], W1: k[0][1], W2: k[0][2], W3: k[0][3]}
}

// entry gathers the key of a compatible match from its field values placed
// in the layout (keyBits): an entry and a packet that agree on every masked
// field value have one key.
func (g *keyGather) entry(m *openflow.Match) hashKey {
	var v, unused [layoutWords]uint64
	for _, f := range g.fields {
		value, _, _ := m.Get(f)
		keyBits(f, value, 0, v[:], unused[:])
	}
	var k [4]uint64
	for _, w := range g.words {
		k[w.dst&3] |= bits.RotateLeft64(v[w.src&7]&w.mask, int(w.rot))
	}
	return hashKey{W0: k[0], W1: k[1], W2: k[2], W3: k[3]}
}
