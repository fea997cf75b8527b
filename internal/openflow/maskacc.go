package openflow

import (
	"math/bits"

	"eswitch/internal/pkt"
)

// MaskAccumulator tracks which bits of which fields a classification walk has
// examined, producing the minimal masked match ("megaflow") covering every
// packet that would have taken exactly the same decisions.  It belongs to
// the OVS baseline's slow path (internal/ovs, and internal/tss's observing
// lookup under it): the flow-caching architecture derives its cache keys
// reactively, per packet, from what the walk looked at — the compiled
// datapath derives its one key statically instead (internal/core).
//
// Two refinements beyond naive mask unioning:
//
//   - Prefix tracking (OVS's staged-lookup behaviour, Fig. 3): a mismatch on
//     a port or IPv4 address only un-wildcards the most-significant bits up
//     to the first divergent bit, instead of the rule's full mask.
//   - Modified-field suppression: a field rewritten by an earlier pipeline
//     stage is never observed into the mask.  Sound by induction — packets
//     that agree on all previously-observed original bits take the same path
//     and receive the same rewrites, so any later comparison on the rewritten
//     value resolves identically — and necessary, because observing a
//     rewritten field would pair the original value with a mask derived from
//     the rewritten one.
//
// Values are always captured from the original (pre-rewrite) packet view the
// accumulator was Reset with, so header rewrites along the walk never leak
// into the cache key.  A zero MaskAccumulator is usable after Reset; Reset is
// cheap (it clears only the fields touched since the previous Reset), which
// is what lets a slow path reuse one accumulator per packet without
// allocations.
type MaskAccumulator struct {
	masks  [NumFields]uint64
	values [NumFields]uint64
	seen   [NumFields]bool
	// touched lists the fields with a non-zero mask or captured value, so
	// Reset clears O(touched) state instead of the full arrays.
	touched [NumFields]Field
	n       int
	// modified marks fields rewritten by an already-executed pipeline stage;
	// observations of them are suppressed.
	modified FieldSet
	// writtenMeta accumulates the metadata bits overwritten by
	// write-metadata instructions.  Unlike set-field, a metadata write is
	// masked, so suppression is bit-granular: observations of FieldMetadata
	// drop the written bits (deterministic given the path) and keep the
	// untouched ones (still carrying original packet state).
	writtenMeta uint64
	// orig is the pre-walk packet view values are captured from (nil falls
	// back to the packet passed to Observe).
	orig *pkt.Packet
}

// Reset clears the accumulator and pins the original packet view values are
// captured from.  orig may be nil when the caller guarantees no rewrites
// happen before observation.
func (a *MaskAccumulator) Reset(orig *pkt.Packet) {
	for i := 0; i < a.n; i++ {
		f := a.touched[i]
		a.masks[f] = 0
		a.values[f] = 0
		a.seen[f] = false
	}
	a.n = 0
	a.modified = 0
	a.writtenMeta = 0
	a.orig = orig
}

// MarkModified records that the walk rewrote field f: later observations of f
// are suppressed (see the package comment for why this is sound).
func (a *MaskAccumulator) MarkModified(f Field) { a.modified = a.modified.Add(f) }

// Observe accumulates mask bits for field f, capturing the field's value from
// the original packet view on first observation.  Observations of fields
// marked modified are dropped.
func (a *MaskAccumulator) Observe(p *pkt.Packet, f Field, mask uint64) {
	if f == FieldMetadata {
		mask &^= a.writtenMeta
	}
	if a.modified.Has(f) || mask == 0 {
		return
	}
	if !a.seen[f] {
		src := a.orig
		if src == nil {
			src = p
		}
		a.values[f] = Extract(src, f)
		a.seen[f] = true
		a.touched[a.n] = f
		a.n++
	}
	a.masks[f] |= mask
}

// ObservePrereq observes the protocol-identifying fields a match prerequisite
// examines: proving (or disproving) the presence of a protocol reads the
// EtherType, the IP protocol number and/or the VLAN tag.
func (a *MaskAccumulator) ObservePrereq(p *pkt.Packet, proto pkt.Proto) {
	if proto&(pkt.ProtoIPv4|pkt.ProtoARP) != 0 {
		a.Observe(p, FieldEthType, FieldEthType.FullMask())
	}
	if proto&(pkt.ProtoTCP|pkt.ProtoUDP|pkt.ProtoICMP|pkt.ProtoSCTP) != 0 {
		a.Observe(p, FieldIPProto, FieldIPProto.FullMask())
	}
	if proto&pkt.ProtoVLAN != 0 {
		a.Observe(p, FieldVLANID, FieldVLANID.FullMask())
	}
}

// prefixRefinable reports whether mismatches on the field can be proven with
// an MSB prefix (ports and IPv4 addresses).
func prefixRefinable(f Field) bool {
	switch f {
	case FieldTCPSrc, FieldTCPDst, FieldUDPSrc, FieldUDPDst,
		FieldSCTPSrc, FieldSCTPDst, FieldIPSrc, FieldIPDst:
		return true
	default:
		return false
	}
}

// ObserveRule examines one rule against the packet, accumulating the examined
// bits, and reports whether the rule matched.  On a mismatch only the bits
// needed to prove it are un-wildcarded (an MSB prefix where the field allows
// it; the rule's mask otherwise).
func (a *MaskAccumulator) ObserveRule(p *pkt.Packet, m *Match) bool {
	if m.IsEmpty() {
		return true
	}
	proto := m.RequiredProto()
	a.ObservePrereq(p, proto)
	if !p.Headers.Has(proto) {
		// The prerequisite check alone rejected the rule; only the
		// protocol-identifying fields were examined.
		return false
	}
	// Walk the set bits and the pairs in field order; FieldSet.Fields would
	// allocate a slice per rule on what is the worker's double-miss path.
	rest := m.fields
	for _, fp := range m.pairs {
		f := lowest(rest)
		rest &= rest - 1
		mask := fp.mask
		diff := (Extract(p, f) ^ fp.value) & mask
		if diff == 0 {
			a.Observe(p, f, mask)
			continue
		}
		// Mismatch: un-wildcard only what was needed to prove it.
		if prefixRefinable(f) && mask == f.FullMask() {
			width := int(f.Width())
			// The first divergent bit, counted from the MSB of the field.
			firstDiff := width - (63 - bits.LeadingZeros64(diff)) - 1
			prefixLen := firstDiff + 1
			prefixMask := f.FullMask() &^ ((uint64(1) << (width - prefixLen)) - 1)
			a.Observe(p, f, prefixMask)
		} else {
			a.Observe(p, f, mask)
		}
		return false
	}
	return true
}

// Orig returns the pre-walk packet view pinned by Reset (may be nil).
func (a *MaskAccumulator) Orig() *pkt.Packet { return a.orig }

// ForEach calls fn for every field with a non-zero accumulated mask, in field
// order, with the captured original value and the mask.
func (a *MaskAccumulator) ForEach(fn func(f Field, value, mask uint64)) {
	for f := Field(0); f < NumFields; f++ {
		if a.masks[f] != 0 {
			fn(f, a.values[f], a.masks[f])
		}
	}
}

// MarkMetadataWrite records a write-metadata instruction's mask: the written
// bits become deterministic for every packet on this path, so later metadata
// observations drop them.
func (a *MaskAccumulator) MarkMetadataWrite(mask uint64) { a.writtenMeta |= mask }

// MarkModifiedActions marks every field the action list rewrites: set-field
// targets, the VLAN tag fields on push/pop, and nothing for actions that do
// not write matchable header fields (output, group, dec_ttl — the TTL is not
// a match field).
func (a *MaskAccumulator) MarkModifiedActions(actions ActionList) {
	for _, act := range actions {
		switch act.Type {
		case ActionSetField:
			a.MarkModified(act.Field)
		case ActionPushVLAN, ActionPopVLAN:
			a.MarkModified(FieldVLANID)
			a.MarkModified(FieldVLANPCP)
		}
	}
}
