package pkt

import "testing"

// FuzzParse runs arbitrary bytes from the wire through the parser templates
// at every depth, one packet at a time and as a burst, then through the RSS
// hash.  Nothing may panic, the single and burst parses must agree on every
// header field, and every protocol bit the parser sets must have its header
// inside the frame.
func FuzzParse(f *testing.F) {
	b := NewBuilder(128)
	src, dst := IPv4FromOctets(10, 0, 0, 1), IPv4FromOctets(192, 0, 2, 1)
	eth := EthernetOpts{Dst: MACFromUint64(0x0000aabbcc01), Src: MACFromUint64(0x0000aabbcc02)}
	vlan := eth
	vlan.VLAN = 42
	for _, frame := range [][]byte{
		b.TCPPacket(eth, IPv4Opts{Src: src, Dst: dst}, L4Opts{Src: 12345, Dst: 80}),
		b.TCPPacket(vlan, IPv4Opts{Src: src, Dst: dst}, L4Opts{Src: 12345, Dst: 80}),
		b.UDPPacket(eth, IPv4Opts{Src: src, Dst: dst}, L4Opts{Src: 53, Dst: 5353}),
		b.ARPPacket(eth, 1, src, dst),
	} {
		f.Add(Clone(frame))
		f.Add(Clone(frame[:len(frame)/2]))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x81, 0x00})

	layers := []Layer{LayerL2, LayerL3, LayerL4}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, layer := range layers {
			single := []Packet{{Data: data}, {Data: data[:len(data)/2]}}
			burst := []Packet{{Data: data}, {Data: data[:len(data)/2]}}
			ParseTo(&single[0], layer)
			ParseTo(&single[1], layer)
			ParseToBurst([]*Packet{&burst[0], &burst[1]}, layer)
			for i := range single {
				if single[i].Headers != burst[i].Headers {
					t.Fatalf("%v packet %d: single parse %+v != burst parse %+v", layer, i, single[i].Headers, burst[i].Headers)
				}
				checkHeadersInside(t, &single[i].Headers, len(single[i].Data))
			}
			if h := single[0].FlowHash(); h != RSSHash(data) {
				t.Fatalf("FlowHash %#x != RSSHash %#x", h, RSSHash(data))
			}
		}
	})
}

// checkHeadersInside fails unless every protocol bit set in h names a header
// that lies wholly inside an n-byte frame.
func checkHeadersInside(t *testing.T, h *Headers, n int) {
	t.Helper()
	for _, c := range []struct {
		bit       Proto
		off, size int
	}{
		{ProtoEthernet, h.L2Off, EthernetHeaderLen},
		{ProtoVLAN, h.L2Off, EthernetHeaderLen + VLANTagLen},
		{ProtoARP, h.L3Off, 28},
		{ProtoIPv4, h.L3Off, 20},
		{ProtoIPv6, h.L3Off, 40},
		{ProtoTCP, h.L4Off, 14},
		{ProtoUDP, h.L4Off, 8},
		{ProtoSCTP, h.L4Off, 8},
		{ProtoICMP, h.L4Off, 4},
	} {
		if h.Proto&c.bit != 0 && (c.off < 0 || c.off+c.size > n) {
			t.Fatalf("%v set with its header at [%d, %d) of a %d-byte frame", c.bit, c.off, c.off+c.size, n)
		}
	}
}
