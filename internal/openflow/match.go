package openflow

import (
	"math/bits"
	"slices"
	"sort"
	"strings"

	"eswitch/internal/pkt"
)

// Match is a wildcard match over packet header fields.  A field that is not
// set matches any value; a set field matches value/mask in the usual masked
// sense (an all-ones mask is an exact match, a prefix mask is a longest-
// prefix-style match, and arbitrary masks are allowed, as in OpenFlow).
//
// A Match stores only the fields it sets, in the manner of OVS's miniflow:
// fields is the bitmap of set fields, and pairs holds their (value, mask)
// pairs packed in field order, so field f's pair sits at the number of set
// fields below f.  Every walk over the match runs over the set bits and the
// pairs in lockstep.  NewMatch allocates room for inlineFields pairs in the
// same allocation as the Match; Clone sizes the copy's room to its fields.
// No two matches share pair storage, so a Match must not be copied by value.
//
// The zero Match matches every packet.
type Match struct {
	fields FieldSet
	pairs  []fieldPair
}

// fieldPair is one set field's value and mask; the value has no bits outside
// the mask.
type fieldPair struct{ value, mask uint64 }

// inlineFields is the room NewMatch reserves: the bundled use cases' matches
// set at most this many fields, so building one costs one allocation.  A
// wider match grows its pairs by append.
const inlineFields = 4

// The match blocks hold a Match and room for its pairs in one allocation.
type (
	matchBlock1 struct {
		m   Match
		buf [1]fieldPair
	}
	matchBlock2 struct {
		m   Match
		buf [2]fieldPair
	}
	matchBlock3 struct {
		m   Match
		buf [3]fieldPair
	}
	matchBlock4 struct {
		m   Match
		buf [inlineFields]fieldPair
	}
)

// newMatchRoom returns an empty match with room for n pairs, in the same
// allocation for up to inlineFields of them.
func newMatchRoom(n int) *Match {
	switch n {
	case 0:
		return &Match{}
	case 1:
		b := new(matchBlock1)
		b.m.pairs = b.buf[:0]
		return &b.m
	case 2:
		b := new(matchBlock2)
		b.m.pairs = b.buf[:0]
		return &b.m
	case 3:
		b := new(matchBlock3)
		b.m.pairs = b.buf[:0]
		return &b.m
	case inlineFields:
		b := new(matchBlock4)
		b.m.pairs = b.buf[:0]
		return &b.m
	}
	return &Match{pairs: make([]fieldPair, 0, n)}
}

// NewMatch returns an empty (match-everything) match.
func NewMatch() *Match { return newMatchRoom(inlineFields) }

// slot returns the position of field f's pair: the number of set fields
// below f.
func (m *Match) slot(f Field) int {
	return bits.OnesCount32(uint32(m.fields) & (1<<f - 1))
}

// lowest returns the lowest field of a non-empty set.
func lowest(s FieldSet) Field { return Field(bits.TrailingZeros32(uint32(s))) }

// Set adds an exact match on field f.
func (m *Match) Set(f Field, value uint64) *Match {
	return m.SetMasked(f, value, f.FullMask())
}

// SetMasked adds a masked match on field f.  A zero mask removes the field.
func (m *Match) SetMasked(f Field, value, mask uint64) *Match {
	mask &= f.FullMask()
	if mask == 0 {
		return m.Unset(f)
	}
	p := fieldPair{value: value & mask, mask: mask}
	i := m.slot(f)
	if m.fields.Has(f) {
		m.pairs[i] = p
		return m
	}
	m.fields = m.fields.Add(f)
	m.pairs = slices.Insert(m.pairs, i, p)
	return m
}

// SetPrefix adds a prefix match of the given length on a 32-bit field (IP
// addresses); length 0 removes the field.
func (m *Match) SetPrefix(f Field, value uint64, prefixLen int) *Match {
	if prefixLen <= 0 {
		m.Unset(f)
		return m
	}
	width := int(f.Width())
	if prefixLen > width {
		prefixLen = width
	}
	mask := f.FullMask() &^ ((uint64(1) << (width - prefixLen)) - 1)
	return m.SetMasked(f, value, mask)
}

// Unset removes field f from the match.
func (m *Match) Unset(f Field) *Match {
	if m.fields.Has(f) {
		i := m.slot(f)
		m.pairs = slices.Delete(m.pairs, i, i+1)
		m.fields &^= 1 << f
	}
	return m
}

// Fields returns the set of fields the match constrains.
func (m *Match) Fields() FieldSet { return m.fields }

// IsEmpty reports whether the match constrains no fields (matches all).
func (m *Match) IsEmpty() bool { return m.fields == 0 }

// Get returns the value and mask for field f and whether it is set.
func (m *Match) Get(f Field) (value, mask uint64, ok bool) {
	if !m.fields.Has(f) {
		return 0, 0, false
	}
	p := m.pairs[m.slot(f)]
	return p.value, p.mask, true
}

// IsPrefix reports whether field f is constrained with a prefix mask and, if
// so, returns the prefix length.
func (m *Match) IsPrefix(f Field) (int, bool) {
	_, mask, ok := m.Get(f)
	if !ok {
		return 0, false
	}
	return prefixLen(f, mask)
}

// prefixLen reports whether mask is a prefix mask of field f — a run of ones
// followed by a run of zeros within the field width — and its length.
func prefixLen(f Field, mask uint64) (int, bool) {
	width := int(f.Width())
	ones := 0
	for i := width - 1; i >= 0; i-- {
		if mask&(1<<uint(i)) != 0 {
			ones++
		} else {
			break
		}
	}
	if mask == f.FullMask()&^((uint64(1)<<(width-ones))-1) {
		return ones, true
	}
	return 0, false
}

// RequiredLayer returns the deepest parse layer the match needs.
func (m *Match) RequiredLayer() pkt.Layer { return m.fields.RequiredLayer() }

// RequiredProto returns the protocol-presence bits a packet must have for the
// match to possibly apply (the union of field prerequisites).
func (m *Match) RequiredProto() pkt.Proto {
	var proto pkt.Proto
	for rest := m.fields; rest != 0; rest &= rest - 1 {
		proto |= lowest(rest).Prerequisite()
	}
	return proto
}

// FieldTracker records which fields (and which bits of them) a classification
// pass examined.  The OVS baseline uses it to compute megaflow masks: every
// field consulted during slow-path classification — whether it matched or not
// — must be folded into the megaflow entry's mask (§2.2).
type FieldTracker interface {
	// ObserveField records that the classification examined field f under
	// the given mask.
	ObserveField(f Field, mask uint64)
}

// Matches reports whether packet p satisfies the match.  The packet must be
// parsed at least to m.RequiredLayer().  If tracker is non-nil, every field
// comparison performed is reported to it (used for megaflow mask
// computation).
func (m *Match) Matches(p *pkt.Packet, tracker FieldTracker) bool {
	if m.fields == 0 {
		return true
	}
	proto := m.RequiredProto()
	if tracker != nil && proto != 0 {
		// Examining prerequisites observes the protocol-identifying
		// fields (EtherType / IP protocol).
		if proto&(pkt.ProtoIPv4|pkt.ProtoARP) != 0 {
			tracker.ObserveField(FieldEthType, FieldEthType.FullMask())
		}
		if proto&(pkt.ProtoTCP|pkt.ProtoUDP|pkt.ProtoICMP|pkt.ProtoSCTP) != 0 {
			tracker.ObserveField(FieldIPProto, FieldIPProto.FullMask())
		}
	}
	if !p.Headers.Has(proto) {
		return false
	}
	rest := m.fields
	for _, fp := range m.pairs {
		f := lowest(rest)
		rest &= rest - 1
		if tracker != nil {
			tracker.ObserveField(f, fp.mask)
		}
		if (Extract(p, f)^fp.value)&fp.mask != 0 {
			return false
		}
	}
	return true
}

// MatchesValues reports whether a field-value vector (indexed by Field)
// satisfies the match; used by the decomposition equivalence checker.
func (m *Match) MatchesValues(values *[NumFields]uint64) bool {
	rest := m.fields
	for _, fp := range m.pairs {
		f := lowest(rest)
		rest &= rest - 1
		if (values[f]^fp.value)&fp.mask != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether the two matches constrain exactly the same
// field/value/mask combinations.
func (m *Match) Equal(o *Match) bool {
	return m.fields == o.fields && slices.Equal(m.pairs, o.pairs)
}

// Clone returns a deep copy of the match, with room for exactly its fields.
func (m *Match) Clone() *Match {
	c := newMatchRoom(len(m.pairs))
	c.fields = m.fields
	c.pairs = append(c.pairs, m.pairs...)
	return c
}

// hash returns a 64-bit hash of the match's fields and pairs: Equal matches
// hash alike.  Flow tables index their entries by it (table.go).
func (m *Match) hash() uint64 {
	h := mix64(uint64(m.fields))
	for _, fp := range m.pairs {
		h = mix64(h ^ fp.value)
		h = mix64(h ^ fp.mask)
	}
	return h
}

// mix64 is the SplitMix64 finalizer: a bijection whose every output bit
// depends on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// String renders the match in ovs-ofctl-like syntax.
func (m *Match) String() string {
	if m.fields == 0 {
		return "*"
	}
	parts := make([]string, 0, len(m.pairs))
	rest := m.fields
	for _, fp := range m.pairs {
		f := lowest(rest)
		rest &= rest - 1
		v, mask := fp.value, fp.mask
		var s string
		switch f {
		case FieldIPSrc, FieldIPDst, FieldARPSPA, FieldARPTPA:
			if plen, ok := prefixLen(f, mask); ok {
				s = formatKV(f.String(), pkt.IPv4(v).String(), plen, 32)
			} else {
				s = f.String() + "=" + pkt.IPv4(v).String() + "/" + pkt.IPv4(mask).String()
			}
		case FieldEthDst, FieldEthSrc:
			s = f.String() + "=" + pkt.MACFromUint64(v).String()
			if mask != f.FullMask() {
				s += "/" + pkt.MACFromUint64(mask).String()
			}
		default:
			if mask == f.FullMask() {
				s = sprintUint(f.String(), v)
			} else {
				s = sprintUintMask(f.String(), v, mask)
			}
		}
		parts = append(parts, s)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func formatKV(name, val string, plen, width int) string {
	if plen == width {
		return name + "=" + val
	}
	return name + "=" + val + "/" + itoa(plen)
}

func sprintUint(name string, v uint64) string        { return name + "=" + utoa(v) }
func sprintUintMask(name string, v, m uint64) string { return name + "=" + utoa(v) + "/0x" + hexa(m) }

func itoa(v int) string { return utoa(uint64(v)) }

func utoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func hexa(v uint64) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0"
	}
	var buf [16]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v&0xf]
		v >>= 4
	}
	return string(buf[i:])
}
