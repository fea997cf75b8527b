package core

import (
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

// maxKeyBits is the widest key the compound-hash template can pack losslessly
// (four 64-bit words); wider field combinations fall back to the linked-list
// template during analysis.
const maxKeyBits = 256

// keyPart places one field in a compound-hash key: the field's masked value
// starts at bit off of word word.
type keyPart struct {
	mask  uint64
	field openflow.Field
	word  uint8
	off   uint8
}

// keyPlan is the compile-time layout of a compound-hash key: the template's
// fields, in order, concatenated bit by bit (each field takes its width), so
// the packing is injective for the field list — a prerequisite of the
// exact-match semantics of the compound hash.
type keyPlan []keyPart

func newKeyPlan(fields []openflow.Field, masks []uint64) keyPlan {
	plan := make(keyPlan, len(fields))
	bit := 0
	for i, f := range fields {
		plan[i] = keyPart{field: f, mask: masks[i], word: uint8(bit >> 6), off: uint8(bit & 63)}
		bit += int(f.Width())
	}
	return plan
}

// put ORs the masked value v of part into the key words.  A field that
// straddles a word boundary spills its high bits into the next word; w has a
// fifth word so that store needs no branch (it is zero when nothing spills,
// and the spill of a key's last word is always zero).  word is at most 3 in
// a key of maxKeyBits; the &3 lets the compiler drop the bounds checks.
func (part keyPart) put(w *[5]uint64, v uint64) {
	v &= part.mask
	w[part.word&3] |= v << part.off
	w[(part.word&3)+1] |= v >> (64 - part.off)
}

func keyOf(w *[5]uint64) hashKey {
	return hashKey{W0: w[0], W1: w[1], W2: w[2], W3: w[3]}
}

// packKey packs the masked values of the plan's fields from a packet into an
// exact-match hash key, one masked shift-or per field.  It is the runtime
// half of the compound-hash template; the compile-time half is the plan.
func (kp keyPlan) packKey(p *pkt.Packet) hashKey {
	var w [5]uint64
	for _, part := range kp {
		part.put(&w, openflow.Extract(p, part.field))
	}
	return keyOf(&w)
}

// packMatchKey packs the masked key of a flow entry's match under the same
// plan; an entry and a packet that agree on every masked field value produce
// identical keys.
func (kp keyPlan) packMatchKey(m *openflow.Match) hashKey {
	var w [5]uint64
	for _, part := range kp {
		v, _, _ := m.Get(part.field)
		part.put(&w, v)
	}
	return keyOf(&w)
}

// keyWidth returns the total packed width in bits of the given fields.
func keyWidth(fields []openflow.Field) int {
	total := 0
	for _, f := range fields {
		total += int(f.Width())
	}
	return total
}
