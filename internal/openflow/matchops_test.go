package openflow

import (
	"maps"
	"sort"
	"strings"
	"testing"

	"eswitch/internal/pkt"
)

// denseMatch is FuzzMatchOps's reference: a value and a mask for every field,
// indexed by Field, the layout Match had before it stored only the fields it
// sets.
type denseMatch struct {
	fields FieldSet
	values [NumFields]uint64
	masks  [NumFields]uint64
}

func (m *denseMatch) setMasked(f Field, value, mask uint64) {
	mask &= f.FullMask()
	if mask == 0 {
		m.unset(f)
		return
	}
	m.fields = m.fields.Add(f)
	m.values[f] = value & mask
	m.masks[f] = mask
}

func (m *denseMatch) setPrefix(f Field, value uint64, prefixLen int) {
	if prefixLen <= 0 {
		m.unset(f)
		return
	}
	width := int(f.Width())
	if prefixLen > width {
		prefixLen = width
	}
	m.setMasked(f, value, f.FullMask()&^((uint64(1)<<(width-prefixLen))-1))
}

func (m *denseMatch) unset(f Field) {
	m.fields &^= 1 << f
	m.values[f] = 0
	m.masks[f] = 0
}

func (m *denseMatch) get(f Field) (value, mask uint64, ok bool) {
	if !m.fields.Has(f) {
		return 0, 0, false
	}
	return m.values[f], m.masks[f], true
}

func (m *denseMatch) isExact(f Field) bool {
	return m.fields.Has(f) && m.masks[f] == f.FullMask()
}

func (m *denseMatch) isPrefix(f Field) (int, bool) {
	if !m.fields.Has(f) {
		return 0, false
	}
	mask := m.masks[f]
	width := int(f.Width())
	ones := 0
	for i := width - 1; i >= 0 && mask&(1<<uint(i)) != 0; i-- {
		ones++
	}
	if mask == f.FullMask()&^((uint64(1)<<(width-ones))-1) {
		return ones, true
	}
	return 0, false
}

func (m *denseMatch) requiredProto() pkt.Proto {
	var proto pkt.Proto
	for f := Field(0); f < NumFields; f++ {
		if m.fields.Has(f) {
			proto |= f.Prerequisite()
		}
	}
	return proto
}

func (m *denseMatch) matches(p *pkt.Packet, tracker FieldTracker) bool {
	if m.fields == 0 {
		return true
	}
	proto := m.requiredProto()
	if tracker != nil && proto != 0 {
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
	for f := Field(0); f < NumFields; f++ {
		if !m.fields.Has(f) {
			continue
		}
		if tracker != nil {
			tracker.ObserveField(f, m.masks[f])
		}
		if (Extract(p, f)^m.values[f])&m.masks[f] != 0 {
			return false
		}
	}
	return true
}

func (m *denseMatch) matchesValues(values *[NumFields]uint64) bool {
	for f := Field(0); f < NumFields; f++ {
		if m.fields.Has(f) && (values[f]^m.values[f])&m.masks[f] != 0 {
			return false
		}
	}
	return true
}

func (m *denseMatch) equal(o *denseMatch) bool { return *m == *o }

func (m *denseMatch) String() string {
	if m.fields == 0 {
		return "*"
	}
	var parts []string
	for f := Field(0); f < NumFields; f++ {
		if !m.fields.Has(f) {
			continue
		}
		v, mask := m.values[f], m.masks[f]
		var s string
		switch f {
		case FieldIPSrc, FieldIPDst, FieldARPSPA, FieldARPTPA:
			if plen, ok := m.isPrefix(f); ok {
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

// spread repeats a byte across a 64-bit word: few distinct values, so
// matches built from fuzz bytes agree (and packets match them) often.
func spread(b byte) uint64 { return uint64(b) * 0x0101010101010101 }

// refPackets returns frames whose headers carry the reference's values: a
// TCP, a UDP and a VLAN-tagged TCP frame, and an ARP request.
func refPackets(r *denseMatch) []*pkt.Packet {
	v := &r.values
	eth := pkt.EthernetOpts{Dst: pkt.MACFromUint64(v[FieldEthDst]), Src: pkt.MACFromUint64(v[FieldEthSrc])}
	ip := pkt.IPv4Opts{Src: pkt.IPv4(v[FieldIPSrc]), Dst: pkt.IPv4(v[FieldIPDst]), DSCP: uint8(v[FieldIPDSCP])}
	tcp := pkt.L4Opts{Src: uint16(v[FieldTCPSrc]), Dst: uint16(v[FieldTCPDst]), TCPFlags: uint16(v[FieldTCPFlags])}
	udp := pkt.L4Opts{Src: uint16(v[FieldUDPSrc]), Dst: uint16(v[FieldUDPDst])}
	tagged := eth
	tagged.VLAN, tagged.VLANPresent, tagged.PCP = uint16(v[FieldVLANID]), true, uint8(v[FieldVLANPCP])
	b := pkt.NewBuilder(128)
	frames := [][]byte{
		pkt.Clone(b.TCPPacket(eth, ip, tcp)),
		pkt.Clone(b.UDPPacket(eth, ip, udp)),
		pkt.Clone(b.TCPPacket(tagged, ip, tcp)),
		pkt.Clone(b.ARPPacket(eth, uint16(v[FieldARPOp]), pkt.IPv4(v[FieldARPSPA]), pkt.IPv4(v[FieldARPTPA]))),
	}
	ps := make([]*pkt.Packet, len(frames))
	for i, f := range frames {
		ps[i] = &pkt.Packet{Data: f, InPort: uint32(v[FieldInPort]), Metadata: v[FieldMetadata]}
		pkt.ParseL4(ps[i])
	}
	return ps
}

// checkMatch compares every read of m with the reference's.
func checkMatch(t *testing.T, name string, m *Match, r *denseMatch, salt byte) {
	t.Helper()
	if m.Fields() != r.fields || m.IsEmpty() != (r.fields == 0) {
		t.Fatalf("%s: Fields %#x, want %#x", name, m.Fields(), r.fields)
	}
	for f := Field(0); f < NumFields; f++ {
		v, mask, ok := m.Get(f)
		wv, wmask, wok := r.get(f)
		if v != wv || mask != wmask || ok != wok {
			t.Fatalf("%s: Get(%v) = %#x/%#x %v, want %#x/%#x %v", name, f, v, mask, ok, wv, wmask, wok)
		}
		if m.IsExact(f) != r.isExact(f) {
			t.Fatalf("%s: IsExact(%v) = %v", name, f, m.IsExact(f))
		}
		plen, ok := m.IsPrefix(f)
		wplen, wok := r.isPrefix(f)
		if plen != wplen || ok != wok {
			t.Fatalf("%s: IsPrefix(%v) = %d %v, want %d %v", name, f, plen, ok, wplen, wok)
		}
	}
	if m.RequiredProto() != r.requiredProto() || m.RequiredLayer() != r.fields.RequiredLayer() {
		t.Fatalf("%s: RequiredProto %v, want %v", name, m.RequiredProto(), r.requiredProto())
	}
	if got, want := m.String(), r.String(); got != want {
		t.Fatalf("%s: String %q, want %q", name, got, want)
	}
	var zero, flipped [NumFields]uint64
	for f := range flipped {
		flipped[f] = r.values[f] ^ uint64(1)<<((int(salt)+f)%64)
	}
	for _, vec := range []*[NumFields]uint64{&r.values, &zero, &flipped} {
		if m.MatchesValues(vec) != r.matchesValues(vec) {
			t.Fatalf("%s: MatchesValues(%v) = %v", name, *vec, m.MatchesValues(vec))
		}
	}
	for i, p := range refPackets(r) {
		got, want := &recordingTracker{}, &recordingTracker{}
		if m.Matches(p, got) != r.matches(p, want) || !maps.Equal(got.observed, want.observed) {
			t.Fatalf("%s: Matches(packet %d) = %v observing %v, want %v observing %v",
				name, i, m.Matches(p, nil), got.observed, r.matches(p, nil), want.observed)
		}
	}
}

// maxMatchOps bounds one FuzzMatchOps input: every op checks both matches
// on four built frames, so long inputs would slow the search to a crawl.
const maxMatchOps = 64

// FuzzMatchOps runs byte-coded Set, SetMasked, SetPrefix and Unset calls,
// clones and fresh matches on two matches, checking every read of both, their
// Equal and their flow-table index keys against the dense reference after
// every op.  Each op is four bytes: the op and the match it acts on, a field,
// a value byte spread across the word, and a mask byte (a prefix length for
// SetPrefix).
func FuzzMatchOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*maxMatchOps {
			ops = ops[:4*maxMatchOps]
		}
		ms := [2]*Match{NewMatch(), {}}
		var rs [2]denseMatch
		for len(ops) >= 4 {
			op, fld, val, arg := ops[0]&7, Field(ops[1]%byte(NumFields)), spread(ops[2]), ops[3]
			x, y := int(ops[0]>>3&1), int(1-ops[0]>>3&1)
			m, r := ms[x], &rs[x]
			switch op {
			case 0:
				m.Set(fld, val)
				r.setMasked(fld, val, fld.FullMask())
			case 1:
				m.SetMasked(fld, val, spread(arg))
				r.setMasked(fld, val, spread(arg))
			case 2:
				plen := int(arg%72) - 4
				m.SetPrefix(fld, val, plen)
				r.setPrefix(fld, val, plen)
			case 3:
				m.Unset(fld)
				r.unset(fld)
			case 4:
				// Clone the other match; later ops mutate either side.
				ms[x], rs[x] = ms[y].Clone(), rs[y]
			case 5:
				// Clone this match into the other.
				ms[y], rs[y] = m.Clone(), *r
			case 6:
				if arg&1 == 0 {
					ms[x] = NewMatch()
				} else {
					ms[x] = &Match{}
				}
				rs[x] = denseMatch{}
			case 7:
				// Copy the other match's field, to make the two agree.
				v, mask, ok := ms[y].Get(fld)
				if !ok {
					m.Unset(fld)
				} else {
					m.SetMasked(fld, v, mask)
				}
				r.setMasked(fld, rs[y].values[fld], rs[y].masks[fld])
			}
			checkMatch(t, "a", ms[0], &rs[0], ops[2])
			checkMatch(t, "b", ms[1], &rs[1], ops[2])
			eq := ms[0].Equal(ms[1])
			if eq != rs[0].equal(&rs[1]) || eq != ms[1].Equal(ms[0]) {
				t.Fatalf("Equal(%v, %v) = %v", ms[0], ms[1], eq)
			}
			// Equal matches share an index key; distinct ones sharing it
			// would be a 64-bit hash collision found by a handful of ops.
			if sameKey := keyOf(int(arg), ms[0]) == keyOf(int(arg), ms[1]); sameKey != eq {
				t.Fatalf("index keys of %v and %v: same %v, Equal %v", ms[0], ms[1], sameKey, eq)
			}
			ops = ops[4:]
		}
	})
}
