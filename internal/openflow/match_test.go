package openflow

import (
	"testing"

	"eswitch/internal/pkt"
)

func tcpPacket(t testing.TB, inPort uint32, src, dst pkt.IPv4, sport, dport uint16) *pkt.Packet {
	t.Helper()
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.TCPPacket(
		pkt.EthernetOpts{Dst: pkt.MACFromUint64(0xa), Src: pkt.MACFromUint64(0xb)},
		pkt.IPv4Opts{Src: src, Dst: dst},
		pkt.L4Opts{Src: sport, Dst: dport},
	))
	p := &pkt.Packet{Data: frame, InPort: inPort}
	pkt.ParseL4(p)
	return p
}

func udpPacket(t testing.TB, inPort uint32, src, dst pkt.IPv4, sport, dport uint16) *pkt.Packet {
	t.Helper()
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.UDPPacket(
		pkt.EthernetOpts{Dst: pkt.MACFromUint64(0xa), Src: pkt.MACFromUint64(0xb)},
		pkt.IPv4Opts{Src: src, Dst: dst},
		pkt.L4Opts{Src: sport, Dst: dport},
	))
	p := &pkt.Packet{Data: frame, InPort: inPort}
	pkt.ParseL4(p)
	return p
}

func vlanPacket(t testing.TB, inPort uint32, vlan uint16, src, dst pkt.IPv4, sport, dport uint16) *pkt.Packet {
	t.Helper()
	b := pkt.NewBuilder(128)
	frame := pkt.Clone(b.TCPPacket(
		pkt.EthernetOpts{Dst: pkt.MACFromUint64(0xa), Src: pkt.MACFromUint64(0xb), VLAN: vlan},
		pkt.IPv4Opts{Src: src, Dst: dst},
		pkt.L4Opts{Src: sport, Dst: dport},
	))
	p := &pkt.Packet{Data: frame, InPort: inPort}
	pkt.ParseL4(p)
	return p
}

func TestFieldNamesRoundTrip(t *testing.T) {
	for f := Field(0); f < NumFields; f++ {
		got, ok := FieldByName(f.String())
		if !ok || got != f {
			t.Errorf("FieldByName(%q) = %v, %v", f.String(), got, ok)
		}
		if f.Width() == 0 {
			t.Errorf("field %v has zero width", f)
		}
	}
	if _, ok := FieldByName("no_such_field"); ok {
		t.Error("FieldByName accepted a bogus name")
	}
}

func TestFieldFullMask(t *testing.T) {
	if FieldVLANID.FullMask() != 0x0fff {
		t.Errorf("vlan mask %#x", FieldVLANID.FullMask())
	}
	if FieldIPDst.FullMask() != 0xffffffff {
		t.Errorf("ip mask %#x", FieldIPDst.FullMask())
	}
	if FieldMetadata.FullMask() != ^uint64(0) {
		t.Errorf("metadata mask %#x", FieldMetadata.FullMask())
	}
	if FieldEthDst.FullMask() != (1<<48)-1 {
		t.Errorf("mac mask %#x", FieldEthDst.FullMask())
	}
}

func TestFieldLayers(t *testing.T) {
	cases := map[Field]pkt.Layer{
		FieldInPort:   pkt.LayerNone,
		FieldEthDst:   pkt.LayerL2,
		FieldVLANID:   pkt.LayerL2,
		FieldIPDst:    pkt.LayerL3,
		FieldARPSPA:   pkt.LayerL3,
		FieldTCPDst:   pkt.LayerL4,
		FieldUDPSrc:   pkt.LayerL4,
		FieldTCPFlags: pkt.LayerL4,
	}
	for f, want := range cases {
		if f.Layer() != want {
			t.Errorf("%v layer = %v, want %v", f, f.Layer(), want)
		}
	}
}

func TestMatchExact(t *testing.T) {
	p := tcpPacket(t, 1, pkt.IPv4FromOctets(10, 0, 0, 1), pkt.IPv4FromOctets(192, 0, 2, 1), 1234, 80)
	m := NewMatch().Set(FieldIPDst, uint64(pkt.IPv4FromOctets(192, 0, 2, 1))).Set(FieldTCPDst, 80)
	if !m.Matches(p, nil) {
		t.Fatal("expected match")
	}
	m2 := NewMatch().Set(FieldTCPDst, 443)
	if m2.Matches(p, nil) {
		t.Fatal("unexpected match")
	}
	m3 := NewMatch().Set(FieldInPort, 1)
	if !m3.Matches(p, nil) {
		t.Fatal("in_port should match")
	}
	if NewMatch().Set(FieldInPort, 2).Matches(p, nil) {
		t.Fatal("in_port=2 should not match")
	}
}

func TestMatchEmptyMatchesEverything(t *testing.T) {
	p := tcpPacket(t, 5, 1, 2, 3, 4)
	if !NewMatch().Matches(p, nil) {
		t.Fatal("empty match must match")
	}
	if !(&Match{}).IsEmpty() {
		t.Fatal("zero Match must be empty")
	}
}

func TestMatchPrerequisites(t *testing.T) {
	// A TCP match must not match a UDP packet even if the port numbers
	// coincide (OpenFlow prerequisite semantics).
	udp := udpPacket(t, 1, 1, 2, 5000, 80)
	m := NewMatch().Set(FieldTCPDst, 80)
	if m.Matches(udp, nil) {
		t.Fatal("tcp_dst must not match a UDP packet")
	}
	if !NewMatch().Set(FieldUDPDst, 80).Matches(udp, nil) {
		t.Fatal("udp_dst should match")
	}
	// A VLAN match must not match an untagged packet.
	untagged := tcpPacket(t, 1, 1, 2, 3, 80)
	if NewMatch().Set(FieldVLANID, 0).Matches(untagged, nil) {
		t.Fatal("vlan_vid must not match an untagged packet")
	}
	tagged := vlanPacket(t, 1, 7, 1, 2, 3, 80)
	if !NewMatch().Set(FieldVLANID, 7).Matches(tagged, nil) {
		t.Fatal("vlan_vid=7 should match")
	}
}

func TestMatchPrefix(t *testing.T) {
	m := NewMatch().SetPrefix(FieldIPDst, uint64(pkt.IPv4FromOctets(192, 0, 2, 0)), 24)
	in := tcpPacket(t, 1, 1, pkt.IPv4FromOctets(192, 0, 2, 200), 1, 2)
	out := tcpPacket(t, 1, 1, pkt.IPv4FromOctets(192, 0, 3, 200), 1, 2)
	if !m.Matches(in, nil) {
		t.Fatal("/24 should match inside address")
	}
	if m.Matches(out, nil) {
		t.Fatal("/24 should not match outside address")
	}
	if plen, ok := m.IsPrefix(FieldIPDst); !ok || plen != 24 {
		t.Fatalf("IsPrefix = %d, %v", plen, ok)
	}
	if m.IsExact(FieldIPDst) {
		t.Fatal("a /24 is not exact")
	}
	full := NewMatch().Set(FieldIPDst, 1)
	if plen, ok := full.IsPrefix(FieldIPDst); !ok || plen != 32 {
		t.Fatalf("full mask should be a /32 prefix, got %d %v", plen, ok)
	}
	arbitrary := NewMatch().SetMasked(FieldIPDst, 0x01000001, 0xff0000ff)
	if _, ok := arbitrary.IsPrefix(FieldIPDst); ok {
		t.Fatal("arbitrary mask is not a prefix")
	}
}

func TestMatchSetMaskedZeroRemoves(t *testing.T) {
	m := NewMatch().Set(FieldTCPDst, 80)
	m.SetMasked(FieldTCPDst, 80, 0)
	if !m.IsEmpty() {
		t.Fatal("zero mask should remove the field")
	}
	m.SetPrefix(FieldIPDst, 1, 0)
	if !m.IsEmpty() {
		t.Fatal("zero prefix should remove the field")
	}
}

func TestMatchEqual(t *testing.T) {
	a := NewMatch().Set(FieldIPDst, 100).Set(FieldTCPDst, 80)
	b := NewMatch().Set(FieldTCPDst, 80).Set(FieldIPDst, 100)
	c := NewMatch().Set(FieldIPDst, 100)
	d := NewMatch().Set(FieldIPDst, 200)
	if !a.Equal(b) || a.Equal(c) || c.Equal(d) {
		t.Fatal("Equal broken")
	}
	if !c.Clone().Set(FieldTCPDst, 80).Equal(a) || !b.Unset(FieldTCPDst).Equal(c) {
		t.Fatal("Equal depends on how the match was built")
	}
}

func TestMatchCloneIndependent(t *testing.T) {
	a := NewMatch().Set(FieldTCPDst, 80)
	b := a.Clone()
	b.Set(FieldTCPDst, 443)
	if v, _, _ := a.Get(FieldTCPDst); v != 80 {
		t.Fatal("clone is not independent")
	}
}

func TestMatchString(t *testing.T) {
	m := NewMatch().
		SetPrefix(FieldIPDst, uint64(pkt.IPv4FromOctets(10, 1, 0, 0)), 16).
		Set(FieldTCPDst, 80).
		Set(FieldEthDst, 0x0000aabbccddee)
	s := m.String()
	for _, want := range []string{"ip_dst=10.1.0.0/16", "tcp_dst=80", "eth_dst=00:aa:bb:cc:dd:ee"} {
		if !contains(s, want) {
			t.Errorf("match string %q missing %q", s, want)
		}
	}
	if NewMatch().String() != "*" {
		t.Errorf("empty match string %q", NewMatch().String())
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestMatchHashKeyDistinguishes checks the flow-table index key: the
// priority and the match's hash.
func TestMatchHashKeyDistinguishes(t *testing.T) {
	a := NewMatch().Set(FieldTCPDst, 80)
	b := NewMatch().Set(FieldTCPDst, 81)
	c := NewMatch().Set(FieldUDPDst, 80)
	d := NewMatch().SetMasked(FieldTCPDst, 80, 0xfff0)
	if keyOf(1, a) == keyOf(1, b) || keyOf(1, a) == keyOf(1, c) || keyOf(1, a) == keyOf(1, d) || keyOf(1, a) == keyOf(2, a) {
		t.Fatal("index keys collide for distinct matches")
	}
	if keyOf(1, a) != keyOf(1, NewMatch().Set(FieldTCPDst, 80)) || keyOf(1, a) != keyOf(1, b.Clone().Set(FieldTCPDst, 80)) {
		t.Fatal("index keys differ for equal matches")
	}
}

func TestRequiredProtoAndLayer(t *testing.T) {
	m := NewMatch().Set(FieldTCPDst, 80)
	if m.RequiredProto()&pkt.ProtoTCP == 0 {
		t.Fatal("tcp_dst requires TCP")
	}
	if m.RequiredLayer() != pkt.LayerL4 {
		t.Fatal("tcp_dst requires L4 parsing")
	}
	l2 := NewMatch().Set(FieldEthDst, 1)
	if l2.RequiredLayer() != pkt.LayerL2 {
		t.Fatal("eth_dst requires only L2 parsing")
	}
}

type recordingTracker struct {
	observed map[Field]uint64
}

func (r *recordingTracker) ObserveField(f Field, mask uint64) {
	if r.observed == nil {
		r.observed = make(map[Field]uint64)
	}
	r.observed[f] |= mask
}

func TestMatchTrackerObservesFields(t *testing.T) {
	p := tcpPacket(t, 1, 1, 2, 3, 80)
	m := NewMatch().Set(FieldIPDst, 2).Set(FieldTCPDst, 80)
	tr := &recordingTracker{}
	if !m.Matches(p, tr) {
		t.Fatal("expected match")
	}
	for _, f := range []Field{FieldIPDst, FieldTCPDst, FieldEthType, FieldIPProto} {
		if _, ok := tr.observed[f]; !ok {
			t.Errorf("field %v not observed", f)
		}
	}
}
