package core

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
)

// setHeader stores v in the packet's header for field f, the inverse of
// openflow.Extract (the L4 port aliases share one header).
func setHeader(p *pkt.Packet, f openflow.Field, v uint64) {
	h := &p.Headers
	switch f {
	case openflow.FieldInPort:
		p.InPort = uint32(v)
	case openflow.FieldMetadata:
		p.Metadata = v
	case openflow.FieldEthDst:
		h.EthDst = pkt.MACFromUint64(v)
	case openflow.FieldEthSrc:
		h.EthSrc = pkt.MACFromUint64(v)
	case openflow.FieldEthType:
		h.EthType = uint16(v)
	case openflow.FieldVLANID:
		h.VLANID = uint16(v)
	case openflow.FieldVLANPCP:
		h.VLANPCP = uint8(v)
	case openflow.FieldIPSrc:
		h.IPSrc = pkt.IPv4(v)
	case openflow.FieldIPDst:
		h.IPDst = pkt.IPv4(v)
	case openflow.FieldIPProto:
		h.IPProto = uint8(v)
	case openflow.FieldIPDSCP:
		h.IPDSCP = uint8(v)
	case openflow.FieldIPECN:
		h.IPECN = uint8(v)
	case openflow.FieldTCPSrc, openflow.FieldUDPSrc, openflow.FieldSCTPSrc:
		h.L4Src = uint16(v)
	case openflow.FieldTCPDst, openflow.FieldUDPDst, openflow.FieldSCTPDst:
		h.L4Dst = uint16(v)
	case openflow.FieldICMPType:
		h.ICMPType = uint8(v)
	case openflow.FieldICMPCode:
		h.ICMPCode = uint8(v)
	case openflow.FieldARPOp:
		h.ARPOp = uint16(v)
	case openflow.FieldARPSPA:
		h.ARPSPA = pkt.IPv4(v)
	case openflow.FieldARPTPA:
		h.ARPTPA = pkt.IPv4(v)
	case openflow.FieldTCPFlags:
		h.TCPFlags = uint16(v)
	}
}

// checkCompoundKey draws a compound-hash stage from next — any of the 24
// fields, each under a random global mask — two entries and a packet, and
// holds the gather to three properties:
//   - the stage is accepted (hashPrerequisite) iff its gather fits four key
//     words: an accepted gather moves every touched layout word once, under
//     the stage's layout mask, into at most four key words with disjoint
//     rotated masks; fields reading the same bits are refused; at most four
//     touched words always fit, and more than 256 masked bits never do;
//   - a packet's key equals an entry's iff every masked field agrees, on a
//     random packet, on one that agrees everywhere, and on near misses with
//     one masked bit of one field flipped;
//   - two entries share a key only if their masked values agree.
func checkCompoundKey(tb testing.TB, next func() uint64) {
	tb.Helper()
	set := openflow.FieldSet(next())
	for n := next() % 4; n > 0; n-- {
		set &= openflow.FieldSet(next())
	}
	set &= 1<<openflow.NumFields - 1
	a, b := openflow.NewMatch(), openflow.NewMatch()
	for _, f := range set.Fields() {
		mask := f.FullMask()
		if next()%2 == 0 {
			mask &= next()
		}
		a.SetMasked(f, next(), mask)
	}
	fields := a.Fields().Fields()
	if len(fields) == 0 {
		return
	}
	masks := make([]uint64, len(fields))
	for i, f := range fields {
		v, m, _ := a.Get(f)
		masks[i] = m
		if next()%2 == 0 {
			v = next()
		}
		b.SetMasked(f, v, m)
	}
	if next()%2 == 0 { // an entry one masked bit away from a
		f := fields[next()%uint64(len(fields))]
		v, m, _ := a.Get(f)
		b.SetMasked(f, v^maskBit(m, next()), m)
	}

	// The layout masks the stage touches, straight from keyLayout.
	var layout [layoutWords]uint64
	alias, width := false, 0
	for i, f := range fields {
		l := keyLayout[f]
		sm := masks[i] << l.shift
		alias = alias || layout[l.word]&sm != 0
		layout[l.word] |= sm
		width += bits.OnesCount64(masks[i])
	}
	touched := 0
	for _, m := range layout {
		if m != 0 {
			touched++
		}
	}
	g, ok := newKeyGather(a)
	stage := []*openflow.FlowEntry{openflow.NewEntry(2, a, openflow.Instructions{}), openflow.NewEntry(1, b, openflow.Instructions{})}
	if _, _, accepted := hashPrerequisite(stage); accepted != ok {
		tb.Fatalf("%v: hashPrerequisite says %v, the gather %v", fields, accepted, ok)
	}
	switch {
	case alias && ok:
		tb.Fatalf("%v: two fields read the same bits, but the gather was accepted", fields)
	case !alias && touched <= 4 && !ok:
		tb.Fatalf("%v: %d touched words, but the gather was refused", fields, touched)
	case width > 256 && ok:
		tb.Fatalf("%v: %d masked bits accepted", fields, width)
	}
	if !ok {
		return
	}
	var occ [4]uint64
	var moved [layoutWords]bool
	for _, w := range g.words {
		rotated := bits.RotateLeft64(w.mask, int(w.rot))
		if w.dst >= 4 || int(w.src) >= layoutWords || moved[w.src] || w.mask != layout[w.src] || occ[w.dst]&rotated != 0 {
			tb.Fatalf("%v: gather %+v does not fit four key words", fields, g)
		}
		moved[w.src] = true
		occ[w.dst] |= rotated
	}
	for w, m := range layout {
		if m != 0 && !moved[w] {
			tb.Fatalf("%v: gather %+v drops layout word %d", fields, g, w)
		}
	}

	agree := func(x *openflow.Match, value func(openflow.Field) uint64) bool {
		for _, f := range fields {
			v, m, _ := x.Get(f)
			if (value(f)^v)&m != 0 {
				return false
			}
		}
		return true
	}
	ka, kb := g.entry(a), g.entry(b)
	if same := agree(a, func(f openflow.Field) uint64 { v, _, _ := b.Get(f); return v }); (ka == kb) != same {
		tb.Fatalf("%v: entries %v and %v: keys equal %v, masked values agree %v", fields, a, b, ka == kb, same)
	}
	p := &pkt.Packet{}
	for f := openflow.Field(0); f < openflow.NumFields; f++ {
		setHeader(p, f, next())
	}
	probe := func(label string) {
		tb.Helper()
		same := agree(a, func(f openflow.Field) uint64 { return openflow.Extract(p, f) })
		if eq := g.packet(p) == ka; eq != same {
			tb.Fatalf("%v, %s packet: key equals the entry's %v, masked fields agree %v", fields, label, eq, same)
		}
	}
	probe("random")
	for _, f := range fields { // agree on every masked bit, keep the rest
		v, m, _ := a.Get(f)
		setHeader(p, f, openflow.Extract(p, f)&^m|v)
	}
	probe("matching")
	if g.packet(p) != ka {
		tb.Fatalf("%v: a matching packet's key %x is not the entry's %x", fields, g.packet(p), ka)
	}
	for _, f := range fields {
		_, m, _ := a.Get(f)
		bit := maskBit(m, next())
		setHeader(p, f, openflow.Extract(p, f)^bit)
		probe("near-miss " + f.String())
		setHeader(p, f, openflow.Extract(p, f)^bit)
	}
}

// maskBit picks one set bit of a non-zero mask.
func maskBit(m, r uint64) uint64 {
	for n := r % uint64(bits.OnesCount64(m)); n > 0; n-- {
		m &= m - 1
	}
	return m & -m
}

// TestCompoundKeyGather runs checkCompoundKey on random stages.
func TestCompoundKeyGather(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 20000; trial++ {
		checkCompoundKey(t, rng.Uint64)
	}
}

// FuzzCompoundKey runs checkCompoundKey on stages drawn from the fuzzer's
// bytes, eight to a draw; past their end the draws come from a fixed
// sequence, so short inputs still make full stages.
func FuzzCompoundKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		x := uint64(0x9e3779b97f4a7c15)
		checkCompoundKey(t, func() uint64 {
			if len(data) >= 8 {
				v := binary.LittleEndian.Uint64(data)
				data = data[8:]
				return v
			}
			x += 0x9e3779b97f4a7c15 // splitmix64
			z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		})
	})
}

var wideFields = [...]openflow.Field{
	openflow.FieldInPort, openflow.FieldEthDst, openflow.FieldEthSrc,
	openflow.FieldIPSrc, openflow.FieldIPDst, openflow.FieldTCPSrc, openflow.FieldTCPDst,
}

// wideFlow is one entry of the four-word hash stage below: its field values
// in wideFields order.
type wideFlow [len(wideFields)]uint64

func (f wideFlow) match() *openflow.Match {
	m := openflow.NewMatch()
	for i, v := range f {
		m.Set(wideFields[i], v)
	}
	return m
}

func (f wideFlow) packet(tb testing.TB) *pkt.Packet {
	tb.Helper()
	frame := pkt.Clone(pkt.NewBuilder(128).TCPPacket(
		pkt.EthernetOpts{Dst: pkt.MACFromUint64(f[1]), Src: pkt.MACFromUint64(f[2])},
		pkt.IPv4Opts{Src: pkt.IPv4(f[3]), Dst: pkt.IPv4(f[4])},
		pkt.L4Opts{Src: uint16(f[5]), Dst: uint16(f[6])},
	))
	return &pkt.Packet{Data: frame, InPort: uint32(f[0])}
}

// TestCompiledMultiWordHashKey compiles a compound-hash stage whose key fills
// four words: in_port, eth_dst, eth_src, ip_src, ip_dst, tcp_src and tcp_dst
// make 224 bits in five layout words, so two of them share a key word.
// Every bundled hash stage touches at most two layout words, so this is what
// covers the shared word.  The stage must agree with the interpreter on hits,
// on near misses with one bit flipped in each field in turn, and across an
// incremental add and delete.
func TestCompiledMultiWordHashKey(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	flows := make([]wideFlow, 40)
	for i := range flows {
		flows[i] = wideFlow{
			uint64(1 + rng.Intn(4)),
			0x020000000000 | rng.Uint64()&0xffffffffff, 0x020000000000 | rng.Uint64()&0xffffffffff,
			uint64(rng.Uint32()), uint64(rng.Uint32()),
			uint64(rng.Intn(65536)), uint64(rng.Intn(65536)),
		}
	}
	pl := openflow.NewPipeline(8)
	t0 := pl.Table(0)
	for i, f := range flows[:30] {
		t0.AddFlow(100, f.match(), openflow.Apply(openflow.Output(uint32(1+i%7))))
	}
	t0.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.ToController()))
	dp, err := Compile(pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if kind, _ := dp.TableTemplate(0); kind != TemplateHash {
		t.Fatalf("table 0 compiled to %v, want the compound hash", kind)
	}
	g := dp.trampolines[0].load().(*hashTable).gather.words
	var dsts [4]int
	for _, w := range g {
		dsts[w.dst&3]++
	}
	if len(g) != 5 || dsts != [4]int{2, 1, 1, 1} {
		t.Fatalf("gather %+v does not move five layout words into four key words", g)
	}

	var packets []*pkt.Packet
	for _, f := range flows { // 30 hits, 10 misses
		packets = append(packets, f.packet(t))
		for i, field := range wideFields { // near misses: one bit of field i flipped
			miss := f
			miss[i] ^= 1 << rng.Intn(int(field.Width()))
			packets = append(packets, miss.packet(t))
		}
	}
	check := func(when string) {
		t.Helper()
		agreesWithInterpreter(t, dp, when, packets...)
		in := openflow.NewInterpreter(dp.Pipeline())
		in.UpdateCounters = false
		ps := make([]*pkt.Packet, len(packets))
		for i, p := range packets {
			ps[i] = clonePacket(p)
		}
		vs := make([]openflow.Verdict, len(ps))
		dp.ProcessBurst(ps, vs)
		for i, p := range packets {
			var ref openflow.Verdict
			in.Process(clonePacket(p), &ref, nil)
			if !ref.Equivalent(&vs[i]) {
				t.Fatalf("%s, burst packet %d: interpreter=%v eswitch=%v", when, i, ref.String(), vs[i].String())
			}
		}
	}
	check("compiled")

	added := flows[35]
	if err := dp.AddFlow(0, openflow.NewEntry(100, added.match(), openflow.Apply(openflow.Output(8)))); err != nil {
		t.Fatal(err)
	}
	if dp.IncrementalUpdates() != 1 {
		t.Fatalf("the add was not served incrementally (rebuilds %d)", dp.Rebuilds())
	}
	var v openflow.Verdict
	if dp.Process(added.packet(t), &v); !v.Forwarded() || v.OutPorts[0] != 8 {
		t.Fatalf("added flow not served: %v", v.String())
	}
	check("after the add")

	if n, err := dp.DeleteFlow(0, flows[3].match(), -1); n != 1 || err != nil {
		t.Fatalf("delete removed %d entries, %v", n, err)
	}
	if dp.IncrementalUpdates() != 2 {
		t.Fatalf("the delete was not served incrementally (rebuilds %d)", dp.Rebuilds())
	}
	check("after the delete")
}
