package pkt

import (
	"testing"
	"testing/quick"
)

func TestMACRoundTrip(t *testing.T) {
	m := MAC{0x00, 0x11, 0x22, 0x33, 0x44, 0x55}
	if got := MACFromUint64(m.Uint64()); got != m {
		t.Fatalf("MAC round trip: got %v want %v", got, m)
	}
	if got := m.String(); got != "00:11:22:33:44:55" {
		t.Fatalf("MAC string: got %q", got)
	}
}

func TestMACUint64Property(t *testing.T) {
	f := func(v uint64) bool {
		v &= (1 << 48) - 1
		return MACFromUint64(v).Uint64() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4String(t *testing.T) {
	ip := IPv4FromOctets(192, 0, 2, 1)
	if ip.String() != "192.0.2.1" {
		t.Fatalf("got %q", ip.String())
	}
	if IPv4FromBytes([]byte{10, 1, 2, 3}) != IPv4FromOctets(10, 1, 2, 3) {
		t.Fatal("IPv4FromBytes and IPv4FromOctets disagree")
	}
}

func TestProtoString(t *testing.T) {
	p := ProtoEthernet | ProtoIPv4 | ProtoTCP
	if got := p.String(); got != "eth|ipv4|tcp" {
		t.Fatalf("got %q", got)
	}
	if Proto(0).String() != "none" {
		t.Fatalf("zero proto: %q", Proto(0).String())
	}
}

func TestLayerString(t *testing.T) {
	for l, want := range map[Layer]string{LayerNone: "none", LayerL2: "L2", LayerL3: "L3", LayerL4: "L4", Layer(9): "Layer(9)"} {
		if l.String() != want {
			t.Errorf("Layer(%d).String() = %q, want %q", l, l.String(), want)
		}
	}
}

func tcpFrame(t testing.TB, vlan uint16, src, dst IPv4, sport, dport uint16) []byte {
	t.Helper()
	b := NewBuilder(128)
	frame := b.TCPPacket(
		EthernetOpts{Dst: MACFromUint64(0x0000aabbcc01), Src: MACFromUint64(0x0000aabbcc02), VLAN: vlan},
		IPv4Opts{Src: src, Dst: dst},
		L4Opts{Src: sport, Dst: dport},
	)
	return Clone(frame)
}

func TestParseTCP(t *testing.T) {
	frame := tcpFrame(t, 0, IPv4FromOctets(10, 0, 0, 1), IPv4FromOctets(192, 0, 2, 1), 12345, 80)
	p := &Packet{Data: frame, InPort: 3}
	if !ParseL4(p) {
		t.Fatal("ParseL4 failed")
	}
	h := &p.Headers
	if !h.Has(ProtoEthernet | ProtoIPv4 | ProtoTCP) {
		t.Fatalf("proto mask %v", h.Proto)
	}
	if h.Has(ProtoVLAN) {
		t.Fatal("unexpected VLAN bit")
	}
	if h.IPSrc.String() != "10.0.0.1" || h.IPDst.String() != "192.0.2.1" {
		t.Fatalf("IP fields %v -> %v", h.IPSrc, h.IPDst)
	}
	if h.L4Src != 12345 || h.L4Dst != 80 {
		t.Fatalf("ports %d -> %d", h.L4Src, h.L4Dst)
	}
	if h.IPProto != IPProtoTCP {
		t.Fatalf("ip proto %d", h.IPProto)
	}
	if h.L2Off != 0 || h.L3Off != 14 || h.L4Off != 34 {
		t.Fatalf("offsets %d %d %d", h.L2Off, h.L3Off, h.L4Off)
	}
	if h.Parsed != LayerL4 {
		t.Fatalf("parsed %v", h.Parsed)
	}
}

func TestParseVLANTCP(t *testing.T) {
	frame := tcpFrame(t, 42, IPv4FromOctets(10, 0, 0, 3), IPv4FromOctets(203, 0, 113, 7), 5555, 443)
	p := &Packet{Data: frame}
	if !ParseL4(p) {
		t.Fatal("ParseL4 failed")
	}
	h := &p.Headers
	if !h.Has(ProtoVLAN) || h.VLANID != 42 {
		t.Fatalf("vlan %v id %d", h.Proto, h.VLANID)
	}
	if h.L3Off != 18 || h.L4Off != 38 {
		t.Fatalf("offsets %d %d", h.L3Off, h.L4Off)
	}
	if h.L4Dst != 443 {
		t.Fatalf("dport %d", h.L4Dst)
	}
}

func TestParseUDP(t *testing.T) {
	b := NewBuilder(128)
	frame := Clone(b.UDPPacket(
		EthernetOpts{Dst: MACFromUint64(1), Src: MACFromUint64(2)},
		IPv4Opts{Src: IPv4FromOctets(10, 0, 0, 3), Dst: IPv4FromOctets(10, 0, 0, 4), DSCP: 10},
		L4Opts{Src: 999, Dst: 53},
	))
	p := &Packet{Data: frame}
	if !ParseL4(p) {
		t.Fatal("ParseL4 failed")
	}
	h := &p.Headers
	if !h.Has(ProtoUDP) || h.L4Dst != 53 || h.L4Src != 999 {
		t.Fatalf("udp parse %v %d %d", h.Proto, h.L4Src, h.L4Dst)
	}
	if h.IPDSCP != 10 {
		t.Fatalf("dscp %d", h.IPDSCP)
	}
}

func TestParseARP(t *testing.T) {
	b := NewBuilder(128)
	frame := Clone(b.ARPPacket(
		EthernetOpts{Dst: MACFromUint64(0xffffffffffff), Src: MACFromUint64(7)},
		1, IPv4FromOctets(10, 0, 0, 1), IPv4FromOctets(10, 0, 0, 2),
	))
	p := &Packet{Data: frame}
	if ParseL4(p) {
		t.Fatal("ARP should not have a transport layer")
	}
	h := &p.Headers
	if !h.Has(ProtoARP) || h.ARPOp != 1 {
		t.Fatalf("arp %v op %d", h.Proto, h.ARPOp)
	}
	if h.ARPSPA != IPv4FromOctets(10, 0, 0, 1) || h.ARPTPA != IPv4FromOctets(10, 0, 0, 2) {
		t.Fatalf("arp addresses %v %v", h.ARPSPA, h.ARPTPA)
	}
}

func TestParseIncremental(t *testing.T) {
	frame := tcpFrame(t, 0, IPv4FromOctets(1, 2, 3, 4), IPv4FromOctets(5, 6, 7, 8), 1, 2)
	p := &Packet{Data: frame}
	if !ParseL2(p) {
		t.Fatal("ParseL2 failed")
	}
	if p.Headers.Parsed != LayerL2 {
		t.Fatalf("parsed %v", p.Headers.Parsed)
	}
	if p.Headers.Has(ProtoIPv4) {
		t.Fatal("IPv4 should not be parsed yet")
	}
	// Parsing deeper is incremental and idempotent.
	if !parseL3(p) || !parseL3(p) {
		t.Fatal("parseL3 failed")
	}
	if !ParseL4(p) || !ParseL4(p) {
		t.Fatal("ParseL4 failed")
	}
	if p.Headers.L4Dst != 2 {
		t.Fatalf("dport %d", p.Headers.L4Dst)
	}
}

func TestParseTruncated(t *testing.T) {
	frame := tcpFrame(t, 0, 1, 2, 3, 4)
	for _, n := range []int{0, 6, 13, 14, 20, 33, 35} {
		p := &Packet{Data: frame[:n]}
		// Must not panic regardless of truncation point.
		ParseL4(p)
	}
	p := &Packet{Data: frame[:13]}
	if ParseL2(p) {
		t.Fatal("13-byte frame should fail L2 parsing")
	}
	p = &Packet{Data: frame[:20]}
	if !ParseL2(p) {
		t.Fatal("20-byte frame has a complete L2 header")
	}
	if parseL3(p) {
		t.Fatal("20-byte frame has no complete IPv4 header")
	}
}

func TestParseToDepth(t *testing.T) {
	frame := tcpFrame(t, 0, 1, 2, 3, 4)
	p := &Packet{Data: frame}
	ParseTo(p, LayerL2)
	if p.Headers.Parsed != LayerL2 {
		t.Fatalf("parsed %v", p.Headers.Parsed)
	}
	ParseTo(p, LayerL4)
	if p.Headers.Parsed != LayerL4 {
		t.Fatalf("parsed %v", p.Headers.Parsed)
	}
	p2 := &Packet{Data: frame}
	ParseTo(p2, LayerNone)
	if p2.Headers.Parsed != LayerNone {
		t.Fatalf("parsed %v", p2.Headers.Parsed)
	}
}

func TestPacketReset(t *testing.T) {
	frame := tcpFrame(t, 0, 1, 2, 3, 4)
	p := &Packet{Data: frame, InPort: 9, Metadata: 77}
	ParseL4(p)
	p.Reset()
	if p.InPort != 0 || p.Metadata != 0 || p.Headers.Proto != 0 || len(p.Data) != 0 {
		t.Fatalf("reset left state: %+v", p)
	}
}

func TestBuilderPadsToMinimum(t *testing.T) {
	b := NewBuilder(0)
	frame := b.EthernetFrame(EthernetOpts{EtherType: 0x88b5}, nil)
	if len(frame) != MinPacketLen {
		t.Fatalf("frame length %d, want %d", len(frame), MinPacketLen)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	b := NewBuilder(128)
	frame := b.TCPPacket(EthernetOpts{}, IPv4Opts{Src: 1, Dst: 2}, L4Opts{Src: 3, Dst: 4})
	// Verify the header checksum sums to 0xffff.
	var sum uint32
	for i := 14; i < 34; i += 2 {
		sum += uint32(frame[i])<<8 | uint32(frame[i+1])
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	if sum != 0xffff {
		t.Fatalf("checksum does not verify: %#x", sum)
	}
}

func TestParsePropertyNoPanic(t *testing.T) {
	f := func(data []byte, inPort uint32) bool {
		p := &Packet{Data: data, InPort: inPort}
		ParseL4(p)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseBuildRoundTripProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, sport, dport uint16, vlan uint16) bool {
		vlan &= 0x0fff
		if vlan == 0 {
			vlan = 1
		}
		b := NewBuilder(128)
		frame := b.TCPPacket(
			EthernetOpts{Dst: MACFromUint64(1), Src: MACFromUint64(2), VLAN: vlan},
			IPv4Opts{Src: IPv4(srcIP), Dst: IPv4(dstIP)},
			L4Opts{Src: sport, Dst: dport},
		)
		p := &Packet{Data: frame}
		if !ParseL4(p) {
			return false
		}
		h := &p.Headers
		return h.IPSrc == IPv4(srcIP) && h.IPDst == IPv4(dstIP) &&
			h.L4Src == sport && h.L4Dst == dport && h.VLANID == vlan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseL2(b *testing.B) {
	frame := tcpFrame(b, 0, 1, 2, 3, 4)
	p := &Packet{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Data = frame
		p.Headers = Headers{}
		ParseL2(p)
	}
}

func BenchmarkParseL4(b *testing.B) {
	frame := tcpFrame(b, 0, 1, 2, 3, 4)
	p := &Packet{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Data = frame
		p.Headers = Headers{}
		ParseL4(p)
	}
}

func BenchmarkBuildTCP(b *testing.B) {
	bld := NewBuilder(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bld.TCPPacket(EthernetOpts{}, IPv4Opts{Src: 1, Dst: 2}, L4Opts{Src: 3, Dst: 4})
	}
}
