package pkt

import "testing"

func rssTCPFrame(t *testing.T, src, dst IPv4, sport, dport uint16, vlan uint16) []byte {
	t.Helper()
	b := NewBuilder(128)
	return Clone(b.TCPPacket(EthernetOpts{VLAN: vlan}, IPv4Opts{Src: src, Dst: dst}, L4Opts{Src: sport, Dst: dport}))
}

func TestRSSHashSymmetric(t *testing.T) {
	fwd := rssTCPFrame(t, IPv4FromOctets(10, 0, 0, 1), IPv4FromOctets(192, 168, 1, 9), 40000, 80, 0)
	rev := rssTCPFrame(t, IPv4FromOctets(192, 168, 1, 9), IPv4FromOctets(10, 0, 0, 1), 80, 40000, 0)
	if RSSHash(fwd) != RSSHash(rev) {
		t.Fatalf("RSS hash not symmetric: %#x vs %#x", RSSHash(fwd), RSSHash(rev))
	}
	// A different flow must (for these fixed inputs) land elsewhere.
	other := rssTCPFrame(t, IPv4FromOctets(10, 0, 0, 2), IPv4FromOctets(192, 168, 1, 9), 40000, 80, 0)
	if RSSHash(fwd) == RSSHash(other) {
		t.Fatalf("distinct flows collided: %#x", RSSHash(fwd))
	}
}

func TestRSSHashVLANAgnosticParse(t *testing.T) {
	// The VLAN tag shifts the IP header; the parse must follow it.  The
	// same 5-tuple behind different tags still hashes by the 5-tuple, so
	// the hash of the tagged frame matches its reversed twin.
	fwd := rssTCPFrame(t, IPv4FromOctets(10, 1, 2, 3), IPv4FromOctets(10, 3, 2, 1), 1234, 4321, 7)
	rev := rssTCPFrame(t, IPv4FromOctets(10, 3, 2, 1), IPv4FromOctets(10, 1, 2, 3), 4321, 1234, 7)
	if RSSHash(fwd) != RSSHash(rev) {
		t.Fatal("RSS hash not symmetric across a VLAN tag")
	}
}

func TestRSSHashDeterministic(t *testing.T) {
	f := rssTCPFrame(t, IPv4FromOctets(1, 2, 3, 4), IPv4FromOctets(4, 3, 2, 1), 10, 20, 0)
	h := RSSHash(f)
	for i := 0; i < 100; i++ {
		if RSSHash(f) != h {
			t.Fatal("RSS hash not deterministic")
		}
	}
}

func TestRSSHashSpreadsFlows(t *testing.T) {
	const queues = 8
	hit := make(map[uint32]int)
	for i := 0; i < 256; i++ {
		f := rssTCPFrame(t, IPv4FromOctets(10, 0, byte(i>>4), byte(i)), IPv4FromOctets(192, 168, 0, 1), uint16(20000+i), 80, 0)
		hit[RSSHash(f)%queues]++
	}
	if len(hit) < queues/2 {
		t.Fatalf("256 flows landed on only %d of %d queues: %v", len(hit), queues, hit)
	}
}

// icmpFrame builds an Ethernet+IPv4+ICMP frame (no transport ports).
func icmpFrame(t *testing.T, src, dst IPv4, icmpType, icmpCode byte) []byte {
	t.Helper()
	b := NewBuilder(128)
	return Clone(b.ipv4Packet(EthernetOpts{}, IPv4Opts{Src: src, Dst: dst, Proto: IPProtoICMP},
		[]byte{icmpType, icmpCode, 0, 0}))
}

// sctpFrame builds an Ethernet+IPv4+SCTP frame.
func sctpFrame(t *testing.T, src, dst IPv4, sport, dport uint16, vlan uint16) []byte {
	t.Helper()
	b := NewBuilder(128)
	l4 := []byte{byte(sport >> 8), byte(sport), byte(dport >> 8), byte(dport), 0, 0, 0, 0}
	return Clone(b.ipv4Packet(EthernetOpts{VLAN: vlan}, IPv4Opts{Src: src, Dst: dst, Proto: IPProtoSCTP}, l4))
}

// TestRSSHashNonTCPUDPSymmetric covers the protocols the plain 5-tuple tests
// skip: ICMP (no ports — addresses and protocol only), SCTP (ports mixed like
// TCP/UDP) and ARP (sender/target addresses).  The microflow verdict cache
// keys on the same parsed view the datapath matches on and probes with this
// hash, so each must be symmetric and deterministic.
func TestRSSHashNonTCPUDPSymmetric(t *testing.T) {
	a, z := IPv4FromOctets(10, 0, 0, 1), IPv4FromOctets(192, 0, 2, 9)

	fwd, rev := icmpFrame(t, a, z, 8, 0), icmpFrame(t, z, a, 0, 0)
	if RSSHash(fwd) != RSSHash(rev) {
		t.Fatal("ICMP hash not symmetric in the addresses")
	}
	if RSSHash(fwd) != RSSHash(fwd) {
		t.Fatal("ICMP hash not deterministic")
	}

	sf, sr := sctpFrame(t, a, z, 5000, 38412, 0), sctpFrame(t, z, a, 38412, 5000, 0)
	if RSSHash(sf) != RSSHash(sr) {
		t.Fatal("SCTP hash not symmetric in the 5-tuple")
	}
	if RSSHash(sf) == RSSHash(icmpFrame(t, a, z, 8, 0)) {
		t.Fatal("SCTP and ICMP between the same addresses collided (ports/proto not mixed)")
	}

	b := NewBuilder(128)
	af := Clone(b.ARPPacket(EthernetOpts{Dst: MACFromUint64(1), Src: MACFromUint64(2)}, 1, a, z))
	ar := Clone(b.ARPPacket(EthernetOpts{Dst: MACFromUint64(2), Src: MACFromUint64(1)}, 2, z, a))
	if RSSHash(af) != RSSHash(ar) {
		t.Fatal("ARP hash not symmetric in sender/target addresses")
	}
}

// TestRSSHashVLANTaggedNonTCP asserts the VLAN-tag skip works for the
// non-TCP/UDP parses too: the tag shifts every inner offset, and both
// directions of a tagged SCTP/ICMP flow must still land on one queue.
func TestRSSHashVLANTaggedNonTCP(t *testing.T) {
	a, z := IPv4FromOctets(172, 16, 0, 1), IPv4FromOctets(172, 16, 9, 9)
	fwd := sctpFrame(t, a, z, 1000, 2000, 42)
	rev := sctpFrame(t, z, a, 2000, 1000, 42)
	if RSSHash(fwd) != RSSHash(rev) {
		t.Fatal("VLAN-tagged SCTP hash not symmetric")
	}
	// The tag itself is not part of the flow identity: the same 5-tuple
	// behind a different (or no) tag hashes identically, so re-tagging
	// cannot migrate a flow across queues mid-connection.
	if RSSHash(fwd) != RSSHash(sctpFrame(t, a, z, 1000, 2000, 0)) {
		t.Fatal("VLAN tag leaked into the flow hash")
	}
}

// TestRSSHashFragmentsShareFlow asserts non-first IPv4 fragments (which carry
// no transport header) hash by addresses+protocol only, deterministically:
// the bytes where the ports would sit must not contribute.
func TestRSSHashFragmentsShareFlow(t *testing.T) {
	b := NewBuilder(128)
	frag := Clone(b.TCPPacket(EthernetOpts{},
		IPv4Opts{Src: IPv4FromOctets(10, 1, 1, 1), Dst: IPv4FromOctets(10, 2, 2, 2)},
		L4Opts{Src: 1111, Dst: 2222}))
	frag2 := Clone(frag)
	// Mark both as non-first fragments (fragment offset 16) and give them
	// different payload bytes where the TCP ports would be parsed.
	for _, f := range [][]byte{frag, frag2} {
		f[EthernetHeaderLen+6] = 0
		f[EthernetHeaderLen+7] = 2
	}
	frag2[EthernetHeaderLen+20] ^= 0xff // "source port" bytes differ
	if RSSHash(frag) != RSSHash(frag2) {
		t.Fatal("fragment payload bytes leaked into the flow hash")
	}
}

// TestRSSHashMalformedIPv4FallsBackToMACs pins the fix the microflow cache
// relies on: a frame that merely claims IPv4 (EtherType 0x0800 over padding,
// IHL below the 20-byte minimum) must not collapse every flow into one
// constant bucket — it is steered by the MAC pair like any non-IP frame.
func TestRSSHashMalformedIPv4FallsBackToMACs(t *testing.T) {
	b := NewBuilder(128)
	f1 := Clone(b.EthernetFrame(EthernetOpts{Dst: MACFromUint64(1), Src: MACFromUint64(0x0a0001), EtherType: EtherTypeIPv4}, nil))
	f2 := Clone(b.EthernetFrame(EthernetOpts{Dst: MACFromUint64(1), Src: MACFromUint64(0x0a0002), EtherType: EtherTypeIPv4}, nil))
	if RSSHash(f1) == RSSHash(f2) {
		t.Fatal("padded pseudo-IPv4 frames with different MACs hashed identically")
	}
	// Symmetric like the genuine MAC-pair fallback.
	r1 := Clone(b.EthernetFrame(EthernetOpts{Dst: MACFromUint64(0x0a0001), Src: MACFromUint64(1), EtherType: EtherTypeIPv4}, nil))
	if RSSHash(f1) != RSSHash(r1) {
		t.Fatal("pseudo-IPv4 MAC fallback not symmetric")
	}
}

// TestPacketFlowHashCaching asserts the packet-cached hash: FlowHash computes
// RSSHash of the frame once, SetFlowHash primes it, and Reset clears it.
func TestPacketFlowHashCaching(t *testing.T) {
	frame := rssTCPFrame(t, IPv4FromOctets(10, 0, 0, 1), IPv4FromOctets(10, 0, 0, 2), 1, 2, 0)
	p := Packet{Data: frame}
	if p.FlowHash() != RSSHash(frame) {
		t.Fatal("FlowHash != RSSHash of the frame")
	}
	// The cached value survives even if Data changes (the producer contract
	// is one frame per packet lifetime); SetFlowHash overrides.
	p.SetFlowHash(12345)
	if p.FlowHash() != 12345 {
		t.Fatal("SetFlowHash did not prime the cache")
	}
	p.Reset()
	p.Data = frame
	if p.FlowHash() != RSSHash(frame) {
		t.Fatal("Reset did not clear the cached hash")
	}
}

func TestRSSHashShortAndNonIPFrames(t *testing.T) {
	// Must not panic and must be deterministic for any junk.
	cases := [][]byte{
		nil,
		{},
		{0x01},
		make([]byte, 13),
		make([]byte, 14),                     // bare Ethernet, unknown ethertype
		append(make([]byte, 12), 0x81, 0x00), // truncated VLAN tag
	}
	for i, f := range cases {
		h1 := RSSHash(f)
		h2 := RSSHash(f)
		if h1 != h2 {
			t.Fatalf("case %d: hash not deterministic", i)
		}
	}
	// Non-IP frames hash the MAC pair symmetrically.
	a := make([]byte, 60)
	b := make([]byte, 60)
	copy(a[0:6], []byte{2, 0, 0, 0, 0, 1})
	copy(a[6:12], []byte{2, 0, 0, 0, 0, 2})
	copy(b[0:6], []byte{2, 0, 0, 0, 0, 2})
	copy(b[6:12], []byte{2, 0, 0, 0, 0, 1})
	a[12], a[13] = 0x88, 0x99 // unknown ethertype
	b[12], b[13] = 0x88, 0x99
	if RSSHash(a) != RSSHash(b) {
		t.Fatal("MAC-pair fallback not symmetric")
	}
}
